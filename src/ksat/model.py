"""Knowledge-context attention stack.

The classifier runs a fixed sequence of four single-head self-attention
layers over the token sequence ``[CLS, KCLS, sentence_1 .. sentence_n]``.
Each layer owns its projection matrices, a learned knowledge token that
overwrites the KCLS slot at layer entry, an outcome readout, and an
unconstrained scalar whose logistic squashing balances the knowledge (KCLS)
and data (CLS) representations. A nonpositive graph-context bias — pairwise
divergence of per-sentence KCLS contributions weighted by inverse hamming
distance of their restricted connection vectors — is added to every outcome
logit, and the per-layer probability vectors combine by elementwise product.

No feed-forward sublayers, layer norm, or positional encodings: tokens are
sentence-level and the only nonlinearity besides attention softmax is the
logistic readout, which keeps the whole stack amenable to hand-derived
gradients (see ``training``).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Post
from .embeddings import EmbeddingConfig, embed_text, sentence_key
from .errors import DataFormatError, NumericalError
from .knowledge import (
    LAYER_ORDER,
    N_OUTCOMES,
    KnowledgeTree,
    Outcome,
    canonical_hash,
    connection_vector,
    hamming_distance,
)

DEFAULT_EPSILON = 1e-6

MODEL_FORMAT = "ksat-model"
MODEL_VERSION = 1


def sigmoid(z):
    """Numerically stable logistic; exactly 0.5 at 0.

    Preserves floating dtype (the finite-difference checker evaluates the
    loss in extended precision); non-float input is computed in float64.
    """
    z = np.asarray(z)
    if not np.issubdtype(z.dtype, np.floating):
        z = z.astype(np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1 / (1 + e), e / (1 + e))[()]


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class KsatLayerParams:
    """Learnable state for one layer plus its tree context binding."""

    w_query: np.ndarray  # (d, d)
    w_key: np.ndarray  # (d, d)
    w_value: np.ndarray  # (d, d)
    kcls_init: np.ndarray  # (d,)
    w_out: np.ndarray  # (d, N_OUTCOMES)
    a_raw: float
    context: tuple[int, ...]
    outcome: Outcome

    @property
    def alpha(self) -> float:
        """Knowledge/data trade-off in (0, 1); derived, never stored."""
        return float(sigmoid(self.a_raw))


@dataclass
class LayerActivations:
    """Per-layer forward artifacts kept for analysis and reporting."""

    z_cls: np.ndarray
    z_kcls: np.ndarray
    kcls_contribs: np.ndarray  # (n, d)
    attention: np.ndarray  # (T, T), rows sum to 1
    kg_bias: float
    layer_probs: np.ndarray  # (N_OUTCOMES,)


@dataclass
class KsatModel:
    layers: list[KsatLayerParams]
    tree: KnowledgeTree
    embedding_config: EmbeddingConfig
    epsilon: float = DEFAULT_EPSILON
    kg_bias_enabled: bool = True

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if tuple(l.outcome for l in self.layers) != LAYER_ORDER:
            raise DataFormatError("model layers must follow the fixed outcome order")
        d = self.embedding_config.dimension
        for layer in self.layers:
            shapes = {
                "w_query": (d, d),
                "w_key": (d, d),
                "w_value": (d, d),
                "kcls_init": (d,),
                "w_out": (d, N_OUTCOMES),
            }
            for name, expected in shapes.items():
                got = getattr(layer, name).shape
                if got != expected:
                    raise DataFormatError(
                        f"layer {layer.outcome.value}: {name} shape {got} != {expected}"
                    )

    @property
    def dimension(self) -> int:
        return self.embedding_config.dimension

    @classmethod
    def initialize(
        cls,
        tree: KnowledgeTree,
        embedding_config: EmbeddingConfig | None = None,
        seed: int = 0,
        init_scale: float | None = None,
        epsilon: float = DEFAULT_EPSILON,
        kg_bias_enabled: bool = True,
        value_scale: float = 0.0,
    ) -> "KsatModel":
        """Seeded Gaussian initialization at scale 1/sqrt(d) by default.

        Value projections start at zero (``value_scale=0``) so the
        graph-context penalty starts exactly at zero: with distance-0 sentence
        pairs present in nearly every post, Gaussian value projections would
        put the bias at ~ -1e4 on the first forward pass and trip the loss
        collapse guard before the first update. A nonzero ``value_scale`` is
        useful for gradient checking, where the penalty path should be
        exercised away from its stationary zero point.
        """
        embedding_config = embedding_config or EmbeddingConfig()
        d = embedding_config.dimension
        scale = init_scale if init_scale is not None else 1.0 / math.sqrt(d)
        rng = np.random.default_rng(seed)
        layers = []
        for outcome in LAYER_ORDER:
            layers.append(
                KsatLayerParams(
                    w_query=scale * rng.standard_normal((d, d)),
                    w_key=scale * rng.standard_normal((d, d)),
                    w_value=value_scale * rng.standard_normal((d, d)),
                    kcls_init=scale * rng.standard_normal(d),
                    w_out=scale * rng.standard_normal((d, N_OUTCOMES)),
                    a_raw=0.0,
                    context=tree.layer_contexts[outcome],
                    outcome=outcome,
                )
            )
        return cls(
            layers=layers,
            tree=tree,
            embedding_config=embedding_config,
            epsilon=epsilon,
            kg_bias_enabled=kg_bias_enabled,
        )


def _pair_weights(
    restricted: list[tuple[int, ...]], epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lexicographic (i<j) sentence pair indices and their penalty weights.

    ``restricted`` holds the sentences' connection vectors restricted to one
    layer's context; each pair is weighted by 1/(hamming distance + epsilon).
    """
    pi, pj = np.triu_indices(len(restricted), 1)
    dists = np.array(
        [
            hamming_distance(restricted[i], restricted[j])
            for i, j in zip(pi.tolist(), pj.tolist())
        ],
        dtype=np.float64,
    )
    return pi, pj, 1.0 / (dists + epsilon)


def _penalty(contribs: np.ndarray, pi: np.ndarray, pj: np.ndarray, inv_dist: np.ndarray):
    """The graph-context bias: ``-sum_p inv_dist[p] * ||c[pi[p]] - c[pj[p]]||^2``.

    Dtype-preserving, so the finite-difference checker can run it in extended
    precision.
    """
    diffs = contribs[pi] - contribs[pj]
    return -np.dot(inv_dist, (diffs * diffs).sum(axis=1))


def kg_bias(
    kcls_contribs: np.ndarray,
    connection_vectors: list[tuple[int, ...]],
    epsilon: float,
) -> float:
    """Graph-context bias: always <= 0, and 0 for fewer than two sentences.

    Sums, over unordered sentence pairs in lexicographic order, the squared
    Euclidean divergence of KCLS contributions divided by the hamming
    distance of the pair's connection vectors plus ``epsilon``, negated.
    """
    contribs = np.asarray(kcls_contribs, dtype=np.float64)
    n = contribs.shape[0]
    if len(connection_vectors) != n:
        raise ValueError(
            f"{n} contribution rows but {len(connection_vectors)} connection vectors"
        )
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if n < 2:
        return 0.0
    return float(_penalty(contribs, *_pair_weights(connection_vectors, epsilon)))


@dataclass
class CompiledPost:
    """Per-post constants reused across epochs and finite-difference probes."""

    post_id: str
    embeddings: np.ndarray  # (n, d)
    pairs: np.ndarray  # (2, P): lexicographic (i<j) sentence pair indices
    inv_dist: np.ndarray  # (L, P): 1/(hamming + epsilon) per layer
    gold: int | None
    n_sentences: int


def compile_post(
    model: KsatModel,
    post: Post,
    sentence_presence=None,
    embeddings_table: dict[str, np.ndarray] | None = None,
) -> CompiledPost:
    """Embed sentences and precompute pairwise connection weights per layer."""
    presence = sentence_presence if sentence_presence is not None else post.sentence_presence
    if presence is None:
        raise DataFormatError(
            f"post {post.id!r} has no sentence_presence; annotate the corpus "
            "or supply gold annotations first"
        )
    if len(presence) != len(post.sentences):
        raise DataFormatError(
            f"post {post.id!r}: {len(presence)} presence vectors for "
            f"{len(post.sentences)} sentences"
        )
    k = model.tree.num_concepts
    for row in presence:
        if len(row) != k:
            raise DataFormatError(
                f"post {post.id!r}: presence vector length {len(row)} != K={k}"
            )
    cfg = model.embedding_config
    d = cfg.dimension
    n = len(post.sentences)
    rows = np.zeros((n, d))
    if cfg.vocabulary_mode == "file-backed":
        if embeddings_table is None:
            raise DataFormatError(
                "model embeddings are file-backed but no embedding table was supplied"
            )
        for idx in range(n):
            key = sentence_key(post.id, idx)
            if key not in embeddings_table:
                raise DataFormatError(f"embedding table has no entry for {key!r}")
            vec = embeddings_table[key]
            if vec.shape != (d,):
                raise DataFormatError(
                    f"embedding for {key!r} has dimension {vec.shape[0]}, expected {d}"
                )
            rows[idx] = vec
    else:
        for idx, sentence in enumerate(post.sentences):
            rows[idx] = embed_text(sentence, cfg)
    weights = [
        _pair_weights(
            [connection_vector(row, layer.context) for row in presence], model.epsilon
        )
        for layer in model.layers
    ]
    pi, pj, _ = weights[0]
    inv_dist = np.array([w for _, _, w in weights])
    gold = None if post.gold is None else LAYER_ORDER.index(post.gold)
    return CompiledPost(
        post_id=post.id,
        embeddings=rows,
        pairs=np.stack([pi, pj]),
        inv_dist=inv_dist,
        gold=gold,
        n_sentences=n,
    )


@dataclass
class LayerPass:
    """Everything the backward pass needs from one layer's forward pass."""

    x: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray
    y: np.ndarray
    contribs: np.ndarray
    kg: float
    alpha: float
    mix: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray


def layer_probabilities(
    z_cls: np.ndarray, z_kcls: np.ndarray, kg_bias_value: float, layer: KsatLayerParams
) -> np.ndarray:
    """Elementwise-logistic outcome probabilities for one layer.

    The readout scores the convex combination ``alpha*z_kcls +
    (1-alpha)*z_cls`` and adds the scalar graph-context bias to every outcome
    logit. The squashing is an elementwise logistic rather than a softmax —
    under a softmax a bias shared by all outcomes would cancel.
    """
    return sigmoid(_readout(layer, z_cls, z_kcls, kg_bias_value)[2])


def _readout(layer: KsatLayerParams, z_cls: np.ndarray, z_kcls: np.ndarray, kg):
    """``(alpha, mix, logits)`` of the readout over the two summary tokens."""
    alpha = sigmoid(layer.a_raw)
    mix = alpha * z_kcls + (1.0 - alpha) * z_cls
    return alpha, mix, layer.w_out.T @ mix + kg


def _layer_core(
    x: np.ndarray,
    layer: KsatLayerParams,
    pi: np.ndarray,
    pj: np.ndarray,
    inv_dist: np.ndarray,
    kg_enabled: bool,
) -> LayerPass:
    """One layer on token matrix `x` (KCLS slot already overwritten)."""
    d = x.shape[1]
    inv_sqrt_d = 1.0 / math.sqrt(d)
    q = x @ layer.w_query
    k = x @ layer.w_key
    v = x @ layer.w_value
    scores = (q @ k.T) * inv_sqrt_d
    attn = softmax_rows(scores)
    y = attn @ v + x
    contribs = attn[1, 2:, None] * v[2:]
    if kg_enabled and pi.size:
        kg = _penalty(contribs, pi, pj, inv_dist)
    else:
        kg = 0.0
    alpha, mix, logits = _readout(layer, y[0], y[1], kg)
    log_probs = -np.logaddexp(0.0, -logits)
    probs = sigmoid(logits)
    return LayerPass(
        x=x, q=q, k=k, v=v, attn=attn, y=y, contribs=contribs,
        kg=kg, alpha=alpha, mix=mix, logits=logits, probs=probs, log_probs=log_probs,
    )


def _activations(lp: LayerPass) -> LayerActivations:
    """Copy one layer pass's reportable artifacts out of the backward state."""
    return LayerActivations(
        z_cls=lp.y[0].copy(),
        z_kcls=lp.y[1].copy(),
        kcls_contribs=lp.contribs.copy(),
        attention=lp.attn.copy(),
        kg_bias=lp.kg,
        layer_probs=lp.probs.copy(),
    )


def layer_forward(
    token_reps: np.ndarray,
    layer: KsatLayerParams,
    connection_vectors: list[tuple[int, ...]],
    epsilon: float,
    kg_enabled: bool = True,
) -> tuple[np.ndarray, LayerActivations]:
    """Run one layer: overwrite KCLS, attend, score; returns (new_reps, acts).

    ``connection_vectors`` are the sentences' presence vectors already
    restricted to this layer's context.
    """
    n = token_reps.shape[0] - 2
    if n < 1:
        raise ValueError(
            "token matrix needs the two reserved rows plus at least one sentence row"
        )
    if len(connection_vectors) != n:
        raise ValueError(
            f"{n} sentence rows but {len(connection_vectors)} connection vectors"
        )
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    pi, pj, inv_dist = _pair_weights(connection_vectors, epsilon)
    x = token_reps.copy()
    x[1] = layer.kcls_init
    lp = _layer_core(x, layer, pi, pj, inv_dist, kg_enabled)
    return lp.y, _activations(lp)


def run_layers(model: KsatModel, compiled: CompiledPost) -> list[LayerPass]:
    """Full stack on a compiled post; the training backward hook."""
    n = compiled.n_sentences
    d = model.dimension
    # token matrix follows the parameter dtype so the finite-difference
    # checker can evaluate the identical code path in extended precision
    reps = np.zeros((n + 2, d), dtype=model.layers[0].w_query.dtype)
    reps[2:] = compiled.embeddings
    pi, pj = compiled.pairs
    passes: list[LayerPass] = []
    for li, layer in enumerate(model.layers):
        x = reps.copy()
        x[1] = layer.kcls_init
        lp = _layer_core(x, layer, pi, pj, compiled.inv_dist[li], model.kg_bias_enabled)
        passes.append(lp)
        reps = lp.y
    return passes


def aggregate_probs(prob_rows) -> np.ndarray:
    """Combine per-layer probability vectors by elementwise product."""
    stacked = np.asarray(prob_rows, dtype=np.float64)
    if stacked.ndim != 2:
        raise ValueError("expected a list of per-layer probability vectors")
    return np.prod(stacked, axis=0)


def forward(
    model: KsatModel,
    post: Post,
    sentence_presence=None,
    embeddings_table: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, list[LayerActivations]]:
    """Run the full stack; returns the raw (unnormalized) final product
    vector over outcomes plus per-layer activations. Pure: no state mutates.
    """
    compiled = compile_post(model, post, sentence_presence, embeddings_table)
    passes = run_layers(model, compiled)
    activations = [_activations(lp) for lp in passes]
    final = aggregate_probs([lp.probs for lp in passes])
    return final, activations


def normalize_probs(final: np.ndarray) -> np.ndarray:
    """Normalized view of the final product for reporting and ranking."""
    total = float(final.sum())
    if total <= 0.0 or not math.isfinite(total):
        raise NumericalError("cannot normalize a degenerate final probability vector")
    return final / total


def predict(
    model: KsatModel,
    post: Post,
    sentence_presence=None,
    embeddings_table: dict[str, np.ndarray] | None = None,
) -> Outcome:
    """Argmax outcome; ties resolve to the earliest layer-order position."""
    final, _ = forward(model, post, sentence_presence, embeddings_table)
    return LAYER_ORDER[int(np.argmax(final))]


def model_to_dict(model: KsatModel) -> dict:
    cfg = model.embedding_config
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "dimension": model.dimension,
        "epsilon": model.epsilon,
        "kg_bias_enabled": model.kg_bias_enabled,
        "embedding": {
            "dimension": cfg.dimension,
            "seed": cfg.seed,
            "vocabulary_mode": cfg.vocabulary_mode,
        },
        "taxonomy_hash": canonical_hash(model.tree),
        "layers": [
            {
                "outcome": layer.outcome.value,
                "context": list(layer.context),
                "a_raw": layer.a_raw,
                "w_query": layer.w_query.ravel().tolist(),
                "w_key": layer.w_key.ravel().tolist(),
                "w_value": layer.w_value.ravel().tolist(),
                "kcls_init": layer.kcls_init.tolist(),
                "w_out": layer.w_out.ravel().tolist(),
            }
            for layer in model.layers
        ],
    }


def save_model(model: KsatModel, path) -> None:
    """JSON persistence with row-major float arrays; round-trips bit-exactly."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_model(path, tree: KnowledgeTree) -> KsatModel:
    """Load a saved model and bind it to `tree` (hashes must match)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        if data.get("format") != MODEL_FORMAT:
            raise DataFormatError(f"{path}: not a {MODEL_FORMAT} file")
        stored_hash = data["taxonomy_hash"]
        if stored_hash != canonical_hash(tree):
            raise DataFormatError(
                f"{path}: model was trained against a different taxonomy "
                f"(hash {stored_hash[:12]}..)"
            )
        emb = data["embedding"]
        cfg = EmbeddingConfig(
            dimension=int(emb["dimension"]),
            seed=int(emb["seed"]),
            vocabulary_mode=str(emb["vocabulary_mode"]),
        )
        d = int(data["dimension"])
        if d != cfg.dimension:
            raise DataFormatError(f"{path}: model/embedding dimension mismatch")
        layers = []
        for entry in data["layers"]:
            layers.append(
                KsatLayerParams(
                    w_query=np.array(entry["w_query"], dtype=np.float64).reshape(d, d),
                    w_key=np.array(entry["w_key"], dtype=np.float64).reshape(d, d),
                    w_value=np.array(entry["w_value"], dtype=np.float64).reshape(d, d),
                    kcls_init=np.array(entry["kcls_init"], dtype=np.float64),
                    w_out=np.array(entry["w_out"], dtype=np.float64).reshape(d, N_OUTCOMES),
                    a_raw=float(entry["a_raw"]),
                    context=tuple(int(i) for i in entry["context"]),
                    outcome=Outcome(entry["outcome"]),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed model JSON ({exc})") from exc
    return KsatModel(
        layers=layers,
        tree=tree,
        embedding_config=cfg,
        epsilon=float(data.get("epsilon", DEFAULT_EPSILON)),
        kg_bias_enabled=bool(data.get("kg_bias_enabled", True)),
    )


def clone_model(model: KsatModel) -> KsatModel:
    """Deep copy of parameters sharing the (immutable) tree and config."""
    layers = [
        KsatLayerParams(
            w_query=layer.w_query.copy(),
            w_key=layer.w_key.copy(),
            w_value=layer.w_value.copy(),
            kcls_init=layer.kcls_init.copy(),
            w_out=layer.w_out.copy(),
            a_raw=layer.a_raw,
            context=layer.context,
            outcome=layer.outcome,
        )
        for layer in model.layers
    ]
    return KsatModel(
        layers=layers,
        tree=model.tree,
        embedding_config=model.embedding_config,
        epsilon=model.epsilon,
        kg_bias_enabled=model.kg_bias_enabled,
    )
