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

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import combinations, starmap

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
    if z.dtype.kind != "f":
        z = z.astype(np.float64)
    e = np.exp(-np.abs(z))
    if z.ndim == 0:
        # a branch costs less than np.where on a scalar; same arithmetic
        return 1 / (1 + e) if z >= 0 else e / (1 + e)
    return np.where(z >= 0, 1, e) / (1 + e)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def block_shapes(d: int) -> dict[str, tuple[int, ...]]:
    """Each layer's learnable array blocks and their shapes, in the order
    `KsatModel.initialize` draws them."""
    return {
        "w_query": (d, d),
        "w_key": (d, d),
        "w_value": (d, d),
        "kcls_init": (d,),
        "w_out": (d, N_OUTCOMES),
    }


ARRAY_BLOCKS = tuple(block_shapes(1))


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
        shapes = block_shapes(self.embedding_config.dimension)
        for layer in self.layers:
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
        epsilon: float = DEFAULT_EPSILON,
        kg_bias_enabled: bool = True,
        value_scale: float = 0.0,
    ) -> "KsatModel":
        """Seeded Gaussian initialization at scale 1/sqrt(d).

        Value projections start at zero (``value_scale=0``) so the
        graph-context penalty starts exactly at zero: with distance-0 sentence
        pairs present in nearly every post, Gaussian value projections would
        put the bias at ~ -1e4 on the first forward pass and trip the loss
        collapse guard before the first update. A nonzero ``value_scale`` is
        useful for gradient checking, where the penalty path should be
        exercised away from its stationary zero point.

        Each layer draws its blocks in `block_shapes` order.
        """
        embedding_config = embedding_config or EmbeddingConfig()
        d = embedding_config.dimension
        scale = 1.0 / math.sqrt(d)
        rng = np.random.default_rng(seed)
        layers = []
        for outcome in LAYER_ORDER:
            blocks = {
                name: (value_scale if name == "w_value" else scale)
                * rng.standard_normal(shape)
                for name, shape in block_shapes(d).items()
            }
            layers.append(
                KsatLayerParams(
                    **blocks,
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


def _pairs(n: int) -> np.ndarray:
    """``(2, P)`` lexicographic (i<j) sentence pair indices for n sentences."""
    return np.stack(np.triu_indices(n, 1))


def _pair_weights(restricted: list[tuple[int, ...]], epsilon: float) -> np.ndarray:
    """Penalty weight of every sentence pair, in lexicographic (i<j) order.

    ``restricted`` holds the sentences' connection vectors restricted to one
    layer's context; each pair is weighted by 1/(hamming distance + epsilon).
    ``itertools.combinations`` yields the pairs in the order of `_pairs`.
    """
    n = len(restricted)
    dists = np.fromiter(
        starmap(hamming_distance, combinations(restricted, 2)),
        np.float64,
        count=n * (n - 1) // 2,
    )
    return 1.0 / (dists + epsilon)


# Pairs per block of the penalty: bounds its (pairs, d) temporaries (2 MiB
# each at d = 64) on long posts.
_PAIR_BLOCK = 4096


def _penalty(contribs: np.ndarray, pi: np.ndarray, pj: np.ndarray, inv_dist: np.ndarray):
    """The graph-context bias: ``-sum_p inv_dist[p] * ||c[pi[p]] - c[pj[p]]||^2``.

    Dtype-preserving, so the finite-difference checker can run it in extended
    precision. The squared norms are taken `_PAIR_BLOCK` pairs at a time into
    one array; each row's sum and the final dot product are the same as in
    one pass over all pairs, so the result is too, bit for bit.
    """
    sq = np.empty(pi.size, dtype=contribs.dtype)
    for lo in range(0, pi.size, _PAIR_BLOCK):
        s = slice(lo, lo + _PAIR_BLOCK)
        diffs = contribs.take(pi[s], axis=0)
        diffs -= contribs.take(pj[s], axis=0)
        diffs *= diffs
        diffs.sum(axis=1, out=sq[s])
    return -np.dot(inv_dist, sq)


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
    return float(_penalty(contribs, *_pairs(n), _pair_weights(connection_vectors, epsilon)))


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
    elif embeddings_table is not None:
        raise DataFormatError(
            "an embedding table was supplied but the model embeds by feature hashing"
        )
    else:
        for idx, sentence in enumerate(post.sentences):
            rows[idx] = embed_text(sentence, cfg)
    inv_dist = np.array(
        [
            _pair_weights(
                [connection_vector(row, layer.context) for row in presence], model.epsilon
            )
            for layer in model.layers
        ]
    )
    gold = None if post.gold is None else LAYER_ORDER.index(post.gold)
    return CompiledPost(
        post_id=post.id,
        embeddings=rows,
        pairs=_pairs(n),
        inv_dist=inv_dist,
        gold=gold,
        n_sentences=n,
    )


@dataclass
class LayerPass:
    """One layer's forward pass: what analysis reports and what the
    backward pass reads. Shared by every caller; treat it as read-only."""

    x: np.ndarray  # (T, d) layer input, KCLS row overwritten
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attention: np.ndarray  # (T, T), rows sum to 1
    y: np.ndarray  # (T, d) layer output
    kcls_contribs: np.ndarray  # (n, d)
    kg_bias: float
    alpha: float
    mix: np.ndarray
    layer_probs: np.ndarray  # (N_OUTCOMES,)
    log_probs: np.ndarray

    @property
    def z_cls(self) -> np.ndarray:
        """The context token's output, row 0 of `y`."""
        return self.y[0]

    @property
    def z_kcls(self) -> np.ndarray:
        """The knowledge token's output, row 1 of `y`."""
        return self.y[1]


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
    return alpha, mix, layer.w_out.T.dot(mix) + kg


def _layer_core(
    reps: np.ndarray,
    layer: KsatLayerParams,
    pi: np.ndarray,
    pj: np.ndarray,
    inv_dist: np.ndarray,
    kg_enabled: bool,
) -> LayerPass:
    """One layer on incoming token matrix `reps`, which is left unchanged:
    the layer reads a copy whose KCLS row is overwritten by its knowledge
    token.

    Products use ``ndarray.dot`` rather than ``@``: for float64 both make
    the same BLAS call, and on the finite-difference checker's
    extended-precision arrays ``dot`` dispatches in about half the time.
    """
    x = reps.copy()
    x[1] = layer.kcls_init
    d = x.shape[1]
    inv_sqrt_d = 1.0 / math.sqrt(d)
    q = x.dot(layer.w_query)
    k = x.dot(layer.w_key)
    v = x.dot(layer.w_value)
    scores = q.dot(k.T) * inv_sqrt_d
    attn = softmax_rows(scores)
    y = attn.dot(v) + x
    contribs = attn[1, 2:, None] * v[2:]
    if kg_enabled and pi.size:
        kg = _penalty(contribs, pi, pj, inv_dist)
    else:
        kg = 0.0
    alpha, mix, logits = _readout(layer, y[0], y[1], kg)
    return LayerPass(
        x=x, q=q, k=k, v=v, attention=attn, y=y, kcls_contribs=contribs,
        kg_bias=kg, alpha=alpha, mix=mix, layer_probs=sigmoid(logits),
        log_probs=-np.logaddexp(0.0, -logits),
    )


def layer_forward(
    token_reps: np.ndarray,
    layer: KsatLayerParams,
    connection_vectors: list[tuple[int, ...]],
    epsilon: float,
    kg_enabled: bool = True,
) -> tuple[np.ndarray, LayerPass]:
    """Run one layer: overwrite KCLS, attend, score; returns the new token
    matrix (the pass's ``y``) and the pass. ``token_reps`` is left unchanged.

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
    pi, pj = _pairs(n)
    lp = _layer_core(
        token_reps, layer, pi, pj, _pair_weights(connection_vectors, epsilon), kg_enabled
    )
    return lp.y, lp


def run_layers(
    model: KsatModel, compiled: CompiledPost, below: Sequence[LayerPass] = ()
) -> list[LayerPass]:
    """Full stack on a compiled post; the training backward hook.

    ``below`` may hold the post's passes through the lowest layers, made
    with those layers' current parameters: they are reused as they are and
    the stack resumes above them. The finite-difference checker passes the
    layers beneath the one it perturbs.
    """
    passes = list(below)
    if passes:
        reps = passes[-1].y
    else:
        # token matrix follows the parameter dtype so the finite-difference
        # checker can evaluate the identical code path in extended precision
        reps = np.zeros(
            (compiled.n_sentences + 2, model.dimension),
            dtype=model.layers[0].w_query.dtype,
        )
        reps[2:] = compiled.embeddings
    pi, pj = compiled.pairs
    for li in range(len(passes), len(model.layers)):
        lp = _layer_core(
            reps, model.layers[li], pi, pj, compiled.inv_dist[li], model.kg_bias_enabled
        )
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
) -> tuple[np.ndarray, list[LayerPass]]:
    """Run the full stack; returns the raw (unnormalized) final product
    vector over outcomes plus each layer's pass. Pure: no state mutates.
    """
    passes = run_layers(model, compile_post(model, post, sentence_presence, embeddings_table))
    return aggregate_probs([lp.layer_probs for lp in passes]), passes


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
                **{name: getattr(layer, name).ravel().tolist() for name in ARRAY_BLOCKS},
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
        shapes = block_shapes(d)
        layers = []
        for entry in data["layers"]:
            layers.append(
                KsatLayerParams(
                    **{
                        name: np.array(entry[name], dtype=np.float64).reshape(shape)
                        for name, shape in shapes.items()
                    },
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
        replace(layer, **{name: getattr(layer, name).copy() for name in ARRAY_BLOCKS})
        for layer in model.layers
    ]
    return replace(model, layers=layers)
