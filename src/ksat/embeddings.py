"""Deterministic sentence embeddings with seeded feature hashing.

Stands in for a pretrained sentence encoder so every pipeline stage is
reproducible without model downloads: tokens are hashed into signed buckets,
accumulated, and L2-normalized. An embedding-file loader reads externally
precomputed vectors keyed by sentence id (`sentence_key`) instead; a model
given such a table is file-backed (``KsatModel.initialize`` and
``load_model`` take it).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, text_lines, whole

_TOKEN_RE = re.compile(r"[0-9a-z]+")


@dataclass(frozen=True)
class EmbeddingConfig:
    """Embedder settings; identical (text, config) pairs embed identically.

    Both fields must be whole numbers (`errors.whole`), the rule the config
    applies when `load_model` builds it from a file too."""

    dimension: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dimension", "seed"):
            whole(getattr(self, name), f"embedding {name}")
        if self.dimension < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {self.dimension}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("embedding seed must fit in 64 unsigned bits")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def _embedder(config: EmbeddingConfig):
    """``embed(text)``: ``embed_text(text, config)``, with one hash per distinct token.

    The blake2b key is derived once, and each distinct token's signed slot is
    kept while the caller holds ``embed``: its bucket index when the sign is
    +1, the bitwise complement of that index when it is -1. The counts are
    whole numbers, so adding them in any order gives the same vector.
    """
    key = config.seed.to_bytes(8, "little")
    dim = config.dimension
    slots: dict[str, int] = {}

    def bucket(token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
        return int.from_bytes(digest, "little")

    def embed(text: str) -> np.ndarray:
        tokens = tokenize(text)
        counts = [0.0] * dim
        for token in tokens:
            slot = slots.get(token)
            if slot is None:
                h = bucket(token)
                slot = (h >> 1) % dim if h & 1 else ~((h >> 1) % dim)
                slots[token] = slot
            if slot >= 0:
                counts[slot] += 1.0
            else:
                counts[~slot] -= 1.0
        vec = np.array(counts)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            if not tokens:
                return vec
            h = bucket("\x00".join(tokens))
            vec[(h >> 1) % dim] = 1.0
            return vec
        return vec / norm

    return embed


def embed_text(text: str, config: EmbeddingConfig) -> np.ndarray:
    """Hash tokens into signed buckets and L2-normalize the counts.

    Text with no alphanumeric tokens embeds to the all-zero vector. If the
    signed buckets cancel exactly for a nonempty token list, a deterministic
    fallback basis vector is emitted instead so that nonempty text always has
    unit norm. Callers that embed many texts under one config make one
    ``_embedder(config)`` and call it, so each distinct token is hashed once.
    """
    return _embedder(config)(text)


def _cosine(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    """Cosine of ``a`` and ``b`` given their norms ``na`` and ``nb``, clamped to [-1, 1].

    0 when either norm is 0. Callers that compare one vector with many pass
    norms they computed once.
    """
    if na == 0.0 or nb == 0.0:
        return 0.0
    value = float(np.dot(a, b) / (na * nb))
    return min(1.0, max(-1.0, value))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; 0 whenever either vector is zero.

    Symmetric under argument swap down to the last bit. Checks the shapes,
    then gives ``_cosine`` the two ``np.linalg.norm`` norms.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataFormatError(f"embedding dimensions differ: {a.shape} vs {b.shape}")
    return _cosine(a, float(np.linalg.norm(a)), b, float(np.linalg.norm(b)))


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Read ``<sentence-id> <v1> ... <vd>`` lines into unit-norm vectors.

    ``#``-prefixed lines are comments and blank lines are skipped. Every
    loaded vector is re-normalized to unit length (all-zero vectors are kept
    as-is), all rows must agree on one dimension, and duplicate ids and
    non-finite values are rejected. Errors carry the offending line number.
    """
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in text_lines(path):
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise DataFormatError(
                f"{path}:{lineno}: expected a sentence id plus at least one value"
            )
        sid = parts[0]
        if sid in table:
            raise DataFormatError(f"{path}:{lineno}: duplicate sentence id {sid!r}")
        try:
            vec = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad float value ({exc})") from exc
        if not np.isfinite(vec).all():
            raise DataFormatError(f"{path}:{lineno}: non-finite value (nan or inf)")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise DataFormatError(
                f"{path}:{lineno}: dimension {vec.shape[0]} != {dim} seen earlier"
            )
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        table[sid] = vec
    return table


def sentence_key(post_id: str, sentence_index: int) -> str:
    """Id convention tying embedding-file rows to corpus sentences."""
    return f"{post_id}:{sentence_index}"
