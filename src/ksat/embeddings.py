"""Deterministic sentence embeddings with seeded feature hashing.

Stands in for a pretrained sentence encoder so every pipeline stage is
reproducible without model downloads: tokens are hashed into signed buckets,
accumulated, and L2-normalized. An embedding-file loader lets callers swap in
externally precomputed vectors keyed by sentence id instead
(``vocabulary_mode="file-backed"``).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

VOCABULARY_MODES = ("feature-hash", "file-backed")

_TOKEN_RE = re.compile(r"[0-9a-z]+")


@dataclass(frozen=True)
class EmbeddingConfig:
    """Embedder settings; identical (text, config) pairs embed identically."""

    dimension: int = 64
    seed: int = 0
    vocabulary_mode: str = "feature-hash"

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {self.dimension}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("embedding seed must fit in 64 unsigned bits")
        if self.vocabulary_mode not in VOCABULARY_MODES:
            raise ValueError(
                f"vocabulary_mode must be one of {VOCABULARY_MODES}, "
                f"got {self.vocabulary_mode!r}"
            )


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def _bucket(token: str, seed: int) -> int:
    key = int(seed).to_bytes(8, "little")
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def embed_text(text: str, config: EmbeddingConfig) -> np.ndarray:
    """Hash tokens into signed buckets and L2-normalize the counts.

    Text with no alphanumeric tokens embeds to the all-zero vector. If the
    signed buckets cancel exactly for a nonempty token list, a deterministic
    fallback basis vector is emitted instead so that nonempty text always has
    unit norm.
    """
    tokens = tokenize(text)
    vec = np.zeros(config.dimension, dtype=np.float64)
    for token in tokens:
        h = _bucket(token, config.seed)
        index = (h >> 1) % config.dimension
        vec[index] += 1.0 if h & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        if not tokens:
            return vec
        h = _bucket("\x00".join(tokens), config.seed)
        vec[(h >> 1) % config.dimension] = 1.0
        return vec
    return vec / norm


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; 0 whenever either vector is zero.

    Symmetric under argument swap down to the last bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataFormatError(f"embedding dimensions differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    value = float(np.dot(a, b) / (na * nb))
    return min(1.0, max(-1.0, value))


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Read ``<sentence-id> <v1> ... <vd>`` lines into unit-norm vectors.

    ``#``-prefixed lines are comments and blank lines are skipped. Every
    loaded vector is re-normalized to unit length (all-zero vectors are kept
    as-is), all rows must agree on one dimension, and duplicate ids and
    non-finite values are rejected. Errors carry the offending line number.
    """
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
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
