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
from dataclasses import dataclass, field, replace
from itertools import combinations, starmap

import numpy as np

from .corpus import Post
from .embeddings import EmbeddingConfig, _embedder, sentence_key
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


def _check_epsilon(epsilon: float) -> None:
    """Refuse a pair-weight epsilon that is not finite and positive: a NaN
    would poison every penalty, and inf would switch the penalty off."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


def sigmoid(z):
    """Numerically stable logistic; exactly 0.5 at 0.

    Preserves floating dtype (the finite-difference checker evaluates the
    loss in extended precision); non-float input is computed in float64.
    Scalars, 0-d arrays included, return a NumPy scalar by the same
    arithmetic as the array path.
    """
    if not isinstance(z, (float, np.floating)):
        z = np.asarray(z)
        if z.dtype.kind != "f":
            z = z.astype(np.float64)
        if z.ndim:
            e = np.exp(-np.abs(z))
            # signbit picks the numerator as `z >= 0` does below; they
            # differ only at -0.0, where e is 1
            out = np.where(np.signbit(z), e, 1.0)
            e += 1.0
            out /= e
            return out
        z = z[()]
    e = np.exp(-abs(z))
    return 1 / (1 + e) if z >= 0 else e / (1 + e)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-shift stabilization."""
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


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
    # sentence vectors by `sentence_key`; a model that holds a table is
    # file-backed and never hashes text. Not saved: `load_model` takes it.
    embeddings_table: dict[str, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
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
        value_scale: float = 0.0,
        embeddings_table: dict[str, np.ndarray] | None = None,
    ) -> "KsatModel":
        """Seeded Gaussian initialization at scale 1/sqrt(d).

        Value projections start at zero (``value_scale=0``) so the
        graph-context penalty starts exactly at zero: with distance-0 sentence
        pairs present in nearly every post, Gaussian value projections would
        put the bias at ~ -1e4 on the first forward pass and trip the loss
        collapse guard before the first update. A nonzero ``value_scale`` is
        useful for gradient checking, where the penalty path should be
        exercised away from its stationary zero point.

        Each layer draws its blocks in `block_shapes` order. A model given
        `embeddings_table` reads its sentence vectors from it.
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
            embeddings_table=embeddings_table,
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


class _Arena:
    """Scratch arrays for the length-bucket passes of one public call.

    `take` hands out arrays in order; a caller gives back everything taken
    after a point by setting `used` back to what it read there. Unfitted,
    `take` makes fresh arrays and records the most elements ever in use at
    once; `fit` then makes one buffer of that size, and later arrays are
    views carved out of it. glibc serves a fresh array of 128 KiB or more
    (its initial mmap threshold) from a new mapping, whose pages the kernel
    faults in and zeroes on first touch; a loop that repeats the same
    passes fits its arena once and reuses those pages. An array that would
    overrun the buffer is made fresh, as before `fit`.
    """

    def __init__(self, dtype) -> None:
        self.dtype = dtype
        self.buffer = np.empty(0, dtype)
        self.used = 0
        self.high = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialized array of `shape` in the arena's dtype."""
        lo = self.used
        self.used += math.prod(shape)
        self.high = max(self.high, self.used)
        if self.used > self.buffer.size:
            return np.empty(shape, self.dtype)
        return self.buffer[lo : self.used].reshape(shape)

    def fit(self) -> None:
        """Grow the buffer to the high-water mark, in one allocation."""
        if self.high > self.buffer.size:
            self.buffer = np.empty(self.high, self.dtype)


# Bytes per block of the pair work: a block holds as many pairs as fit one
# ``(posts, pairs, d)`` array in this budget, so each block array stays below
# glibc's initial mmap threshold (128 KiB) and is served from the heap, not
# from a fresh mapping whose pages fault in on every call.
_BLOCK_BYTES = 64 * 1024


def _pair_diffs(contribs: np.ndarray, pi: np.ndarray, pj: np.ndarray):
    """Yield ``(s, diffs)`` block by block, in pair order: `s` slices the
    block's pairs and `diffs` is ``contribs[..., pi[s], :] - contribs[...,
    pj[s], :]``, a fresh array the caller may overwrite.

    A block holds as many pairs as fit one `diffs` in `_BLOCK_BYTES`, at
    least one.
    """
    lead = contribs.shape[:-2]
    block = max(1, _BLOCK_BYTES // (math.prod(lead) * contribs.shape[-1] * contribs.itemsize))
    for lo in range(0, pi.size, block):
        s = slice(lo, lo + block)
        yield s, contribs.take(pi[s], axis=-2) - contribs.take(pj[s], axis=-2)


def _penalty(contribs: np.ndarray, pi: np.ndarray, pj: np.ndarray, inv_dist: np.ndarray):
    """The graph-context bias: ``-sum_p inv_dist[p] * ||c[pi[p]] - c[pj[p]]||^2``.

    For one post `contribs` is ``(n, d)`` and `inv_dist` ``(P,)``; for a
    bucket of posts of one length they are ``(B, n, d)`` and ``(B, P)``, and
    the result is ``(B,)``. Dtype-preserving, so the finite-difference
    checker can run it in extended precision. The squared norms are taken
    block by block (`_pair_diffs`) into one array; each row's sum and the
    final dot product are the same as in one pass over all pairs, so the
    result is too, bit for bit, whatever the block size.
    """
    sq = np.empty(contribs.shape[:-2] + pi.shape, dtype=contribs.dtype)
    for s, diffs in _pair_diffs(contribs, pi, pj):
        diffs *= diffs
        diffs.sum(axis=-1, out=sq[..., s])
    # One post stays on `np.dot`. Folding it, and `_readout`'s, into the
    # bucket branches slowed the finite-difference check, which runs its
    # posts one by one: `gradcheck` `wall_s` medians 3.69 against 3.57 s
    # over four alternated pairs, and 4.10 against 3.77 s in an earlier
    # trial (2-vCPU host).
    if sq.ndim == 1:
        return -np.dot(inv_dist, sq)
    # one dot product per post, as `np.dot` makes for one
    return -np.matmul(inv_dist[:, None, :], sq[:, :, None])[:, 0, 0]


def _penalty_grad(
    contribs: np.ndarray,
    pi: np.ndarray,
    pj: np.ndarray,
    inv_dist: np.ndarray,
    g_pen: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """The gradient of a bucket's `_penalty` wrt its ``(B, n, d)``
    `contribs`, written into `out` (same shape) and returned, given
    `g_pen`, the ``(B,)`` gradient wrt the penalties.

    Pair p adds ``-2 g_pen inv_dist[p] (c[pi[p]] - c[pj[p]])`` to row
    ``pi[p]`` and subtracts it from row ``pj[p]``. The pairs go block by
    block (`_pair_diffs`), every block's additions before any block's
    subtractions, so each row takes its terms in the order one pass over
    all pairs gives them, bit for bit, whatever the block size. Sentences
    repeat in `pi` and `pj`, so fancy-index ``+=`` would drop terms.
    """
    g_scale = (-2.0 * g_pen)[:, None, None]
    out.fill(0.0)
    for accumulate, ends in ((np.add.at, pi), (np.subtract.at, pj)):
        for s, g_diffs in _pair_diffs(contribs, pi, pj):
            g_diffs *= inv_dist[:, s, None]
            g_diffs *= g_scale
            accumulate(out, (slice(None), ends[s]), g_diffs)
    return out


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
    _check_epsilon(epsilon)
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


def compile_post(model: KsatModel, post: Post, sentence_presence=None) -> CompiledPost:
    """Embed sentences, from the model's table when it holds one, and
    precompute pairwise connection weights per layer."""
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
    table = model.embeddings_table
    if table is not None:
        for idx in range(n):
            key = sentence_key(post.id, idx)
            if key not in table:
                raise DataFormatError(f"embedding table has no entry for {key!r}")
            vec = table[key]
            if vec.shape != (d,):
                raise DataFormatError(
                    f"embedding for {key!r} has dimension {vec.shape[0]}, expected {d}"
                )
            rows[idx] = vec
    else:
        embed = _embedder(cfg)
        for idx, sentence in enumerate(post.sentences):
            rows[idx] = embed(sentence)
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


@dataclass(slots=True)
class LayerPass:
    """One layer's forward pass: what analysis reports and what the
    backward pass reads. Shared by every caller; treat it as read-only.

    The shapes below are one post's. A pass over a bucket of B posts of one
    length gives every array field a leading ``B`` axis, and `kg_bias` is
    then a ``(B,)`` array; `alpha` is the layer's, shared by all posts.
    `alpha`, `mix`, `logits` and `log_probs` are the readout (`_readout`);
    `layer_probs` is computed from `logits` when read, since the loss reads
    only `log_probs`.
    """

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
    logits: np.ndarray  # (N_OUTCOMES,)
    log_probs: np.ndarray

    @property
    def layer_probs(self) -> np.ndarray:
        """The outcome probabilities, the logistic of `logits`."""
        return sigmoid(self.logits)

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
    return sigmoid(_readout(layer, np.stack((z_cls, z_kcls)), kg_bias_value)["logits"])


def _readout(layer: KsatLayerParams, y: np.ndarray, kg) -> dict[str, np.ndarray]:
    """A pass's readout fields, `alpha`, `mix`, `logits` and `log_probs`,
    from its output tokens `y` and penalty `kg` by `layer`'s `a_raw` and
    `w_out`, for one post or, with a leading axis on each argument, a
    bucket. The one readout: `_layer_core` builds every pass's with it, and
    `_readout_pass` rebuilds one."""
    alpha = sigmoid(layer.a_raw)
    mix = alpha * y[..., 1, :] + (1.0 - alpha) * y[..., 0, :]
    # one post stays on `dot`, for speed, as `_penalty` measures
    if mix.ndim == 1:
        logits = layer.w_out.T.dot(mix) + kg
    else:
        # one vector-matrix product per post, as `dot` makes for one
        logits = np.matmul(mix[:, None, :], layer.w_out)[:, 0] + kg[:, None]
    return {"alpha": alpha, "mix": mix, "logits": logits, "log_probs": -np.logaddexp(0.0, -logits)}


def _readout_pass(layer: KsatLayerParams, lp: LayerPass) -> LayerPass:
    """A copy of `lp` with its readout rebuilt by `layer`'s current `a_raw`
    and `w_out`: the pass `_layer_core` makes when only those changed since
    `lp`, bit for bit, since they enter nothing but the readout."""
    return replace(lp, **_readout(layer, lp.y, lp.kg_bias))


def _layer_core(
    reps: np.ndarray,
    layer: KsatLayerParams,
    pi: np.ndarray,
    pj: np.ndarray,
    inv_dist: np.ndarray,
    kg_enabled: bool,
    arena: _Arena | None = None,
) -> LayerPass:
    """One layer on incoming token matrix `reps`, which is left unchanged:
    the layer reads a copy whose KCLS row is overwritten by its knowledge
    token.

    `reps` is one post's ``(T, d)`` tokens with `inv_dist` ``(P,)``, or a
    bucket's ``(B, T, d)`` tokens of posts of one length with ``(B, P)``;
    a bucket's posts share `pi`, `pj`. A bucket gives each post the numbers
    its own pass gives, bit for bit: the projections are one GEMM over all
    token rows, and ``np.matmul`` makes, post by post, the BLAS calls that
    ``ndarray.dot`` makes for one post. A bucket's token-sized arrays are
    taken from `arena`. One post stays on ``dot`` without reshapes and
    takes no arena: the finite-difference checker runs its tiny
    extended-precision posts one by one, and as buckets of one its check
    took 4.9-5.9 s against 3.3-3.8 s (about 55% longer; `gradcheck`
    `wall_s`, four alternated runs each, 2-vCPU host).
    """
    d = reps.shape[-1]
    inv_sqrt_d = 1.0 / math.sqrt(d)
    if reps.ndim == 2:
        x = reps.copy()
        x[..., 1, :] = layer.kcls_init
        q = x.dot(layer.w_query)
        k = x.dot(layer.w_key)
        v = x.dot(layer.w_value)
        scores = q.dot(k.T)
    else:
        x = arena.take(reps.shape)
        np.copyto(x, reps)
        x[:, 1] = layer.kcls_init
        rows = x.reshape(-1, d)
        q, k, v = (arena.take(x.shape) for _ in range(3))
        for w, out in ((layer.w_query, q), (layer.w_key, k), (layer.w_value, v)):
            rows.dot(w, out=out.reshape(-1, d))
        scores = np.matmul(q, k.transpose(0, 2, 1))
    scores *= inv_sqrt_d
    attn = softmax_rows(scores)
    if x.ndim == 2:
        y = attn.dot(v)
        contribs = attn[..., 1, 2:, None] * v[..., 2:, :]
    else:
        y = np.matmul(attn, v, out=arena.take(x.shape))
        contribs = np.multiply(attn[:, 1, 2:, None], v[:, 2:], out=arena.take(v[:, 2:].shape))
    y += x
    if kg_enabled and pi.size:
        kg = _penalty(contribs, pi, pj, inv_dist)
    elif x.ndim == 2:
        kg = 0.0
    else:
        kg = np.zeros(len(x))
    return LayerPass(
        x=x, q=q, k=k, v=v, attention=attn, y=y, kcls_contribs=contribs,
        kg_bias=kg, **_readout(layer, y, kg),
    )


def layer_forward(
    token_reps: np.ndarray,
    layer: KsatLayerParams,
    connection_vectors: list[tuple[int, ...]],
    epsilon: float,
    kg_enabled: bool = True,
) -> tuple[np.ndarray, LayerPass]:
    """Run one layer: overwrite KCLS, attend, score; returns the new token
    matrix (the pass's ``y``) and the pass. ``token_reps`` is left unchanged
    and read in the layer's parameter dtype.

    ``connection_vectors`` are the sentences' presence vectors already
    restricted to this layer's context.
    """
    # an integer matrix would truncate the knowledge token written into it
    token_reps = np.asarray(token_reps, dtype=layer.w_query.dtype)
    n = token_reps.shape[0] - 2
    if n < 1:
        raise ValueError(
            "token matrix needs the two reserved rows plus at least one sentence row"
        )
    if len(connection_vectors) != n:
        raise ValueError(
            f"{n} sentence rows but {len(connection_vectors)} connection vectors"
        )
    _check_epsilon(epsilon)
    pi, pj = _pairs(n)
    lp = _layer_core(
        token_reps, layer, pi, pj, _pair_weights(connection_vectors, epsilon), kg_enabled
    )
    return lp.y, lp


def _param_dtype(model: KsatModel):
    """The dtype the layer stack computes in: the parameters'. Token
    matrices follow it so the finite-difference checker can evaluate the
    identical code path in extended precision."""
    return model.layers[0].w_query.dtype


def _run_from(
    model: KsatModel,
    reps: np.ndarray,
    pairs: np.ndarray,
    inv_dist: np.ndarray,
    passes: list[LayerPass],
    arena: _Arena | None = None,
) -> list[LayerPass]:
    """Run the layers above `passes` on `reps`, their input tokens, and
    append their passes.

    `reps` (``(T, d)``, or ``(B, T, d)`` for a bucket) and `inv_dist`
    (``(L, P)``, or ``(L, B, P)``) come from the posts' compiled constants;
    a bucket's passes take their arrays from `arena`.
    """
    pi, pj = pairs
    for li in range(len(passes), len(model.layers)):
        lp = _layer_core(
            reps, model.layers[li], pi, pj, inv_dist[li], model.kg_bias_enabled, arena
        )
        passes.append(lp)
        reps = lp.y
    return passes


def run_layers(
    model: KsatModel, compiled: CompiledPost, below: Sequence[LayerPass] = ()
) -> list[LayerPass]:
    """Full stack on one compiled post.

    ``below`` may hold the post's passes through the lowest layers, made
    with those layers' current parameters: they are reused as they are and
    the stack resumes above them. The finite-difference checker passes the
    layers beneath the one it perturbs.
    """
    passes = list(below)
    if passes:
        reps = passes[-1].y
    else:
        reps = np.zeros((compiled.n_sentences + 2, model.dimension), _param_dtype(model))
        reps[2:] = compiled.embeddings
    return _run_from(model, reps, compiled.pairs, compiled.inv_dist, passes)


def _run_bucket(
    model: KsatModel, cps: Sequence[CompiledPost], arena: _Arena
) -> tuple[list[LayerPass], np.ndarray]:
    """Full stack on a bucket of compiled posts of one sentence count, one
    `_layer_core` call per layer; `_bucket_passes` runs it. Returns the
    passes and the posts' pair weights stacked ``(L, B, P)``, which the
    training backward reads.
    The token matrix and every pass's token-sized arrays are taken from
    `arena`, so they live until the caller gives them back.

    Posts of one length share their token count and sentence pairs, so they
    stack without padding or masks. Row b of every field is what
    `run_layers` gives ``cps[b]``, bit for bit.
    """
    reps = arena.take((len(cps), cps[0].n_sentences + 2, model.dimension))
    reps[:, :2] = 0.0
    np.stack([cp.embeddings for cp in cps], out=reps[:, 2:])
    inv_dist = np.stack([cp.inv_dist for cp in cps], axis=1)
    return _run_from(model, reps, cps[0].pairs, inv_dist, [], arena), inv_dist


def _buckets(compiled: Sequence[CompiledPost]) -> list[list[int]]:
    """The posts' indices grouped by sentence count, shortest first."""
    buckets: dict[int, list[int]] = {}
    for i, cp in enumerate(compiled):
        buckets.setdefault(cp.n_sentences, []).append(i)
    return [buckets[n] for n in sorted(buckets)]


def _log_probs_array(model: KsatModel, n_posts: int) -> np.ndarray:
    """An empty ``(posts, layers, outcomes)`` array in the parameters' dtype."""
    return np.empty((n_posts, len(model.layers), N_OUTCOMES), dtype=_param_dtype(model))


def _bucket_passes(
    model: KsatModel,
    compiled: Sequence[CompiledPost],
    log_probs: np.ndarray,
    arena: _Arena | None = None,
):
    """The one batch driver of training, evaluation and the reports: runs
    compiled posts per length bucket, shortest first, and yields each
    bucket's post indices with its `_run_bucket` passes and pair weights,
    after copying its per-layer log-probabilities into its rows of
    `log_probs` (`_log_probs_array`). Each bucket starts `arena` (one made
    for the call when None) empty, so a caller is done with a bucket's
    passes when it asks for the next."""
    if arena is None:
        arena = _Arena(_param_dtype(model))
    for rows in _buckets(compiled):
        arena.used = 0  # the previous bucket's passes are dead
        passes, inv_dist = _run_bucket(model, [compiled[i] for i in rows], arena)
        log_probs[rows] = np.stack([lp.log_probs for lp in passes], axis=1)
        yield rows, passes, inv_dist
        del passes, inv_dist  # the next bucket runs without these


def _log_products(log_probs: np.ndarray) -> np.ndarray:
    """``(posts, outcomes)`` log final products from ``(posts, layers,
    outcomes)`` per-layer log-probabilities, the layers added in stack
    order."""
    # dtype-preserving throughout: the finite-difference checker runs this
    # same code on an extended-precision model clone
    log_f = np.zeros((log_probs.shape[0], N_OUTCOMES), dtype=log_probs.dtype)
    for li in range(log_probs.shape[1]):
        log_f += log_probs[:, li]
    return log_f


def _log_normalized(log_f: np.ndarray) -> np.ndarray:
    """Log normalized products, each row by its own log-sum-exp.

    The row's maximum comes off before the log of its sum does. Adding the
    two first would round at the scale of the row's largest log product,
    which passes 1e11 in magnitude on posts whose raw products underflow,
    and the row's exps would then sum to 1 only within that rounding."""
    shifted = log_f - log_f.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _ranked(log_f: np.ndarray, post_ids: Sequence[str]) -> np.ndarray:
    """Each post's outcome index: the argmax of its log final products, ties
    to the earliest. A post whose log products are not all finite (a NaN
    parameter, say) raises `NumericalError` naming it."""
    bad = ~np.isfinite(log_f).all(axis=1)
    if bad.any():
        post_id = post_ids[int(bad.argmax())]
        raise NumericalError(
            f"post {post_id!r}: log final products {log_f[bad][0].tolist()} are not all finite",
            post_id=post_id,
        )
    return log_f.argmax(axis=1)


def aggregate_probs(prob_rows) -> np.ndarray:
    """Combine per-layer probability vectors by elementwise product."""
    stacked = np.asarray(prob_rows, dtype=np.float64)
    if stacked.ndim != 2:
        raise ValueError("expected a list of per-layer probability vectors")
    return np.prod(stacked, axis=0)


def forward(model: KsatModel, post: Post) -> tuple[np.ndarray, list[LayerPass]]:
    """Run the full stack; returns the raw (unnormalized) final product
    vector over outcomes plus each layer's pass. Pure: no state mutates.
    """
    passes = run_layers(model, compile_post(model, post))
    return aggregate_probs([lp.layer_probs for lp in passes]), passes


def normalize_probs(final: np.ndarray) -> np.ndarray:
    """Normalized view of the final product for reporting and ranking."""
    total = float(final.sum())
    if total <= 0.0 or not math.isfinite(total):
        raise NumericalError("cannot normalize a degenerate final probability vector")
    return final / total


def predict(model: KsatModel, post: Post) -> Outcome:
    """Argmax outcome of the log final product, as `score_posts` ranks;
    ties resolve to the earliest layer-order position. A post whose raw
    products all underflow to 0.0 still ranks; see `_ranked`."""
    _, passes = forward(model, post)
    log_f = _log_products(np.stack([lp.log_probs for lp in passes])[None])
    return LAYER_ORDER[int(_ranked(log_f, [post.id])[0])]


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
            "vocabulary_mode": "feature-hash" if model.embeddings_table is None else "file-backed",
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


def load_model(
    path, tree: KnowledgeTree, embeddings_table: dict[str, np.ndarray] | None = None
) -> KsatModel:
    """Load a saved model and bind it to `tree` (hashes must match).

    A file-backed model needs `embeddings_table`, the one it was trained
    with; a feature-hash model takes none.
    """
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
        mode = emb["vocabulary_mode"]
        if mode not in ("feature-hash", "file-backed"):
            raise DataFormatError(f"{path}: unknown vocabulary_mode {mode!r}")
        if (mode == "file-backed") != (embeddings_table is not None):
            raise DataFormatError(
                f"{path}: the model is file-backed; pass its embedding table"
                if embeddings_table is None
                else f"{path}: the model embeds by feature hashing and takes no table"
            )
        cfg = EmbeddingConfig(dimension=int(emb["dimension"]), seed=int(emb["seed"]))
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
        return KsatModel(
            layers=layers,
            tree=tree,
            embedding_config=cfg,
            epsilon=float(data.get("epsilon", DEFAULT_EPSILON)),
            kg_bias_enabled=bool(data.get("kg_bias_enabled", True)),
            embeddings_table=embeddings_table,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed model JSON ({exc})") from exc


def clone_model(model: KsatModel) -> KsatModel:
    """Deep copy of parameters sharing the tree, config and embedding table."""
    layers = [
        replace(layer, **{name: getattr(layer, name).copy() for name in ARRAY_BLOCKS})
        for layer in model.layers
    ]
    return replace(model, layers=layers)
