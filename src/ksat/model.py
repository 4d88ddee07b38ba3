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
from .errors import DataFormatError, NumericalError, flag, number, whole
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


def _check_epsilon(epsilon: float) -> float:
    """`epsilon` as a float if it is a finite, positive number: a NaN would
    poison every penalty, and inf would switch the penalty off."""
    epsilon = number(epsilon, "epsilon")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    return epsilon


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
    """Softmax over the last axis with max-shift stabilization, into one
    fresh array: `scores` is left unchanged, and the exponent and the
    division run in place in the shifted copy."""
    e = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(e, out=e)
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
    # the penalty's switch; of the layer stack only `compile_post` reads it
    kg_bias_enabled: bool = True
    # sentence vectors by `sentence_key`; a model that holds a table is
    # file-backed and never hashes text. Not saved: `load_model` takes it.
    embeddings_table: dict[str, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.epsilon = _check_epsilon(self.epsilon)
        flag(self.kg_bias_enabled, "kg_bias_enabled")
        if tuple(l.outcome for l in self.layers) != LAYER_ORDER:
            raise DataFormatError("model layers must follow the fixed outcome order")
        shapes = block_shapes(self.embedding_config.dimension)
        for layer in self.layers:
            where = f"layer {layer.outcome.value}"
            layer.a_raw = number(layer.a_raw, f"{where}: a_raw")
            for i in layer.context:
                whole(i, f"{where}: context id")
            if layer.context != self.tree.layer_contexts[layer.outcome]:
                raise DataFormatError(f"{where}: context is not the tree's")
            for name, expected in shapes.items():
                got = getattr(layer, name).shape
                if got != expected:
                    raise DataFormatError(f"{where}: {name} shape {got} != {expected}")

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


def _pair_weights(restricted: list[tuple[int, ...]], epsilon: float) -> np.ndarray:
    """Penalty weight of every sentence pair, in lexicographic (i<j) order,
    the order ``itertools.combinations`` yields them in.

    ``restricted`` holds the sentences' connection vectors restricted to one
    layer's context; each pair is weighted by 1/(hamming distance + epsilon).
    """
    n = len(restricted)
    # read as ints: a Python int converts to float64 more slowly, and every
    # distance is exact in both
    dists = np.fromiter(
        starmap(hamming_distance, combinations(restricted, 2)),
        np.intp,
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


@dataclass(slots=True)
class _Groups:
    """One layer's sentences grouped by equal restricted connection vectors:
    the layout of the penalty (`_penalty`) and its gradient.

    A pair's weight depends only on its two sentences' groups: 1/epsilon
    within a group, ``W_gh`` across groups g and h. Groups are numbered by
    their first sentence; `cross` is one dense table. For a bucket of posts
    of one length (`_stack_groups`) every field but `shared` gains a
    leading post axis, `codes` and `first` index the bucket's rows with the
    post axis flattened, and each post's groups are padded to the bucket's
    largest count with empty groups (size 0, weight 0), which add nothing.
    """

    codes: np.ndarray  # (n,) each sentence's group
    first: np.ndarray  # (G,) each group's first sentence
    sizes: np.ndarray  # (G,) n_g, the sentences in each group
    load: np.ndarray  # (n,) (W n)_g of each sentence's group g, its own group included
    cross: np.ndarray  # (G, G) W_gh n_g n_h, symmetric, 0 on the diagonal
    shared: bool  # some group holds two or more sentences


def _groups(restricted: list[tuple[int, ...]], epsilon: float) -> _Groups | None:
    """One layer's `_Groups` from the sentences' restricted connection
    vectors, or None, the one sign of a zero penalty, for fewer than two
    sentences. Plain Python: most posts have a few sentences, and NumPy
    calls on arrays that small cost more than they save.

    A pair within a group weighs ``1 / (0 + epsilon)``. The weight of
    groups g and h is read from the row of every sentence pair's weight
    (`_pair_weights`), at their first sentences' pair. G^2 Hamming
    distances would do, but the benchmark's traced `long-posts` run pins
    `knowledge.hamming_distance` at one call per pair, so fewer calls wait
    for a change to the benchmark. Each sentence's vector is replaced by
    its group's first one, equal to it, so a pair within a group hands
    `hamming_distance` one object twice and takes its identity exit.
    """
    n = len(restricted)
    if n < 2:
        return None
    index: dict[tuple[int, ...], int] = {}
    codes, first = [], []
    for i, vector in enumerate(restricted):
        g = index.setdefault(vector, len(index))
        codes.append(g)
        if g == len(first):
            first.append(i)
    weights = _pair_weights([restricted[first[g]] for g in codes], epsilon)
    sizes = [0.0] * len(first)
    for g in codes:
        sizes[g] += 1.0
    within = 1.0 / (0.0 + epsilon)
    table = [[0.0] * len(first) for _ in first]  # W_gh
    cross = [[0.0] * len(first) for _ in first]
    for h, j in enumerate(first):
        if sizes[h] > 1.0:
            table[h][h] = within
        for g, i in enumerate(first[:h]):
            # pair (i, j), i < j, sits at i (2n - i - 3) / 2 + j - 1 in the row
            table[g][h] = table[h][g] = float(weights[i * (2 * n - i - 3) // 2 + j - 1])
            cross[g][h] = cross[h][g] = table[g][h] * sizes[g] * sizes[h]
    load = [sum(w * size for w, size in zip(row, sizes)) for row in table]
    return _Groups(
        codes=np.array(codes, np.intp),
        first=np.array(first, np.intp),
        sizes=np.array(sizes),
        load=np.array([load[g] for g in codes]),
        cross=np.array(cross),
        shared=len(first) < n,
    )


def _padded(arrays: list[np.ndarray], size: int) -> np.ndarray:
    """The `arrays`, each ``(m,)`` or ``(m, m)``, stacked and padded with
    zeros to `size` on every axis."""
    out = np.zeros((len(arrays),) + (size,) * arrays[0].ndim, arrays[0].dtype)
    inside = np.arange(size) < np.array([a.shape[0] for a in arrays])[:, None]
    if arrays[0].ndim == 2:
        inside = inside[:, :, None] & inside[:, None, :]
    out[inside] = np.concatenate([a.ravel() for a in arrays])
    return out


def _stack_groups(groups: Sequence[_Groups]) -> _Groups:
    """One layer's groups of a bucket's posts, stacked and padded (`_Groups`)."""
    n, size = groups[0].codes.size, max(gr.first.size for gr in groups)
    offsets = np.arange(len(groups))[:, None]
    return _Groups(
        codes=np.stack([gr.codes for gr in groups]) + size * offsets,
        first=_padded([gr.first for gr in groups], size) + n * offsets,
        sizes=_padded([gr.sizes for gr in groups], size),
        load=np.stack([gr.load for gr in groups]),
        cross=_padded([gr.cross for gr in groups], size),
        shared=any(gr.shared for gr in groups),
    )


def _rows(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The rows of `values` (``(..., m, d)``, leading axes flattened) at
    `index`, shaped ``index.shape + (d,)``."""
    return values.reshape(-1, values.shape[-1]).take(index, axis=0)


def _group_means(contribs: np.ndarray, groups: _Groups) -> np.ndarray:
    """Each group's mean row, taken as ``c_r + mean(c_i - c_r)`` with r the
    group's first sentence, so a group of equal rows gives back that row
    exactly, and the penalty of equal rows is exactly 0. A pad's is its
    post's first row.

    The sums go through `np.add.at`, which adds its terms in index order,
    so each is taken in sentence order and a bucket's row is its post's,
    bit for bit; one index per element, as `np.add.at` runs several times
    faster on a 1-D target than on rows.
    """
    if not groups.shared:
        return contribs  # every group is one sentence, in sentence order
    d = contribs.shape[-1]
    base = _rows(contribs, groups.first)
    deviations = contribs - _rows(base, groups.codes)
    means = np.zeros_like(base)
    elements = (groups.codes * d)[..., None] + np.arange(d)
    np.add.at(means.reshape(-1), elements.reshape(-1), deviations.reshape(-1))
    means /= np.maximum(groups.sizes, 1.0)[..., None]
    means += base
    return means


def _penalty(contribs: np.ndarray, groups: _Groups):
    """The graph-context bias, ``-sum_{i<j} W_ij ||c_i - c_j||^2``, over
    groups of equal connection vectors:

        -sum_g SS_g (W n)_g - sum_{g<h} W_gh n_g n_h ||mu_g - mu_h||^2,

    with SS_g the sum of ``||c_i - mu_g||^2`` over group g. The within term
    is skipped when every group is one sentence.

    For one post `contribs` is ``(n, d)``, n >= 2; for a bucket of posts of
    one length it is ``(B, n, d)`` with `groups` stacked (`_stack_groups`),
    and the result is ``(B,)``. The cross term walks the groups, group h
    against groups 0..h-1 in one ``(..., h, d)`` array, and all terms go
    into one running sum, sentences then group pairs by h, then g: a
    bucket's padded groups add their zeros last, so each post's penalty is
    its own, bit for bit. Dtype-preserving, so the finite-difference
    checker can run it in extended precision.
    """
    means = _group_means(contribs, groups)
    terms = []
    if groups.shared:
        spread = contribs - _rows(means, groups.codes)
        spread *= spread
        terms.append(groups.load * spread.sum(axis=-1))
    for h in range(1, means.shape[-2]):
        diffs = means[..., :h, :] - means[..., h, None, :]
        diffs *= diffs
        terms.append(diffs.sum(axis=-1) * groups.cross[..., h, :h])
    return -np.add.accumulate(np.concatenate(terms, axis=-1), axis=-1).take(-1, axis=-1)


def _penalty_grad(
    contribs: np.ndarray, groups: _Groups, g_pen: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The gradient of a bucket's `_penalty` wrt its ``(B, n, d)``
    `contribs`, written into `out` (same shape) and returned, given
    `g_pen`, the ``(B,)`` gradient wrt the penalties.

    For sentence i of group g it is, in centred form,
    ``-2 g_pen [(W n)_g (c_i - mu_g) + sum_h W_gh n_h (mu_g - mu_h)]``: the
    mean's own derivative drops out, since ``sum_i (c_i - mu_g)`` is 0 over
    the group. The sum over h walks the groups in order, group h's term
    for every g at once in one ``(..., G, d)`` array. `cross` is 0 on its
    diagonal, so a group's own term is an exact 0, and a bucket's padded
    groups, walked last, add zeros, which change nothing.
    """
    means = _group_means(contribs, groups)
    pull = np.zeros_like(means)  # n_g sum_h W_gh n_h (mu_g - mu_h) per group g
    for h in range(means.shape[-2]):
        diffs = means - means[..., h, None, :]
        diffs *= groups.cross[..., h, :, None]
        pull += diffs
    pull /= np.maximum(groups.sizes, 1.0)[..., None]
    out[...] = _rows(pull, groups.codes)
    if groups.shared:
        spread = contribs - _rows(means, groups.codes)
        spread *= groups.load[..., None]
        out += spread
    out *= (-2.0 * g_pen)[..., None, None]
    return out


def kg_bias(
    kcls_contribs: np.ndarray,
    connection_vectors: list[tuple[int, ...]],
    epsilon: float,
) -> float:
    """Graph-context bias: always <= 0, and 0 for fewer than two sentences.

    Sums, over unordered sentence pairs, the squared Euclidean divergence of
    KCLS contributions divided by the hamming distance of the pair's
    connection vectors plus ``epsilon``, negated. It is computed as the
    forward computes it, over groups of equal connection vectors
    (`_penalty`), so it gives a pass's `kg_bias` bit for bit.
    """
    contribs = np.asarray(kcls_contribs, dtype=np.float64)
    n = contribs.shape[0]
    if len(connection_vectors) != n:
        raise ValueError(
            f"{n} contribution rows but {len(connection_vectors)} connection vectors"
        )
    _check_epsilon(epsilon)
    groups = _groups(connection_vectors, epsilon)
    return 0.0 if groups is None else float(_penalty(contribs, groups))


@dataclass
class CompiledPost:
    """Per-post constants reused across epochs and finite-difference probes.
    A layer holds groups only with `kg_bias_enabled` on and two or more
    sentences (`_groups`); every public entry point compiles just before it runs."""

    post_id: str
    embeddings: np.ndarray  # (n, d)
    groups: tuple[_Groups | None, ...]  # per layer, the penalty's sentence groups
    gold: int | None

    @property
    def n_sentences(self) -> int:
        """The post's sentence count, the rows of `embeddings`."""
        return self.embeddings.shape[0]


def compile_post(model: KsatModel, post: Post) -> CompiledPost:
    """Embed sentences, from the model's table when it holds one, and group
    them per layer by their restricted connection vectors (`_groups`),
    keeping O(n + G^2) numbers per layer, or None (`CompiledPost`). Of the
    presence rows `Post` has checked, only their width, K, needs the model."""
    presence = post.sentence_presence
    if presence is None:
        raise DataFormatError(
            f"post {post.id!r} has no sentence_presence; annotate the corpus "
            "or supply gold annotations first"
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
    groups = tuple(
        _groups([connection_vector(row, layer.context) for row in presence], model.epsilon)
        if model.kg_bias_enabled
        else None
        for layer in model.layers
    )
    gold = None if post.gold is None else LAYER_ORDER.index(post.gold)
    return CompiledPost(post_id=post.id, embeddings=rows, groups=groups, gold=gold)


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
    kg_bias: float  # a NumPy float
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
    # one post stays on `dot`: the finite-difference checker reads out some
    # 80,000 tiny posts one by one, and the bucket form costs 2-4 us more each
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
    groups: _Groups | None,
    arena: _Arena | None = None,
) -> LayerPass:
    """One layer on incoming token matrix `reps`, which is left unchanged:
    the layer reads a copy whose KCLS row is overwritten by its knowledge
    token.

    `reps` is one post's ``(T, d)`` tokens with its `groups`, or a bucket's
    ``(B, T, d)`` tokens of posts of one length with their groups stacked
    (`_stack_groups`); only the penalty reads them, and None (`_groups`)
    gives a penalty of 0. A bucket gives each post the numbers its own pass
    gives, bit for bit: the projections are one GEMM over all token rows,
    and ``np.matmul`` makes, post by post, the BLAS calls that
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
    # no groups, no penalty: 0 per post, a NumPy scalar for one post
    kg = np.zeros(x.shape[:-2])[()] if groups is None else _penalty(contribs, groups)
    return LayerPass(
        x=x, q=q, k=k, v=v, attention=attn, y=y, kcls_contribs=contribs,
        kg_bias=kg, **_readout(layer, y, kg),
    )


def layer_forward(
    token_reps: np.ndarray,
    layer: KsatLayerParams,
    connection_vectors: list[tuple[int, ...]],
    epsilon: float,
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
    lp = _layer_core(token_reps, layer, _groups(connection_vectors, epsilon))
    return lp.y, lp


def _param_dtype(model: KsatModel):
    """The dtype the layer stack computes in: the parameters'. Token
    matrices follow it so the finite-difference checker can evaluate the
    identical code path in extended precision."""
    return model.layers[0].w_query.dtype


def _run_from(
    model: KsatModel,
    reps: np.ndarray,
    groups: Sequence[_Groups | None],
    passes: list[LayerPass],
    arena: _Arena | None = None,
) -> list[LayerPass]:
    """Run the layers above `passes` on `reps`, their input tokens, and
    append their passes.

    `reps` (``(T, d)``, or ``(B, T, d)`` for a bucket) and each layer's
    `groups` (stacked for a bucket) come from the posts' compiled
    constants; a bucket's passes take their arrays from `arena`.
    """
    for li in range(len(passes), len(model.layers)):
        lp = _layer_core(reps, model.layers[li], groups[li], arena)
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
    return _run_from(model, reps, compiled.groups, passes)


def _run_bucket(
    model: KsatModel, cps: Sequence[CompiledPost], arena: _Arena
) -> tuple[list[LayerPass], list[_Groups | None]]:
    """Full stack on a bucket of compiled posts of one sentence count, one
    `_layer_core` call per layer; `_bucket_passes` runs it. Returns the
    passes and each layer's groups, stacked (`_stack_groups`), which the
    training backward reads; None where the posts hold none (`CompiledPost`),
    so a bucket of one-sentence posts stacks nothing.
    The token matrix and every pass's token-sized arrays are taken from
    `arena`, so they live until the caller gives them back.

    Posts of one length share their token count, so their tokens stack
    without padding or masks. Row b of every field is what `run_layers`
    gives ``cps[b]``, bit for bit.
    """
    reps = arena.take((len(cps), cps[0].n_sentences + 2, model.dimension))
    reps[:, :2] = 0.0
    np.stack([cp.embeddings for cp in cps], out=reps[:, 2:])
    by_layer = zip(*(cp.groups for cp in cps))  # each layer's groups, one per post
    groups = [None if each[0] is None else _stack_groups(each) for each in by_layer]
    return _run_from(model, reps, groups, [], arena), groups


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
    bucket's post indices with its `_run_bucket` passes and groups,
    after copying its per-layer log-probabilities into its rows of
    `log_probs` (`_log_probs_array`). Each bucket starts `arena` (one made
    for the call when None) empty, so a caller is done with a bucket's
    passes when it asks for the next."""
    if arena is None:
        arena = _Arena(_param_dtype(model))
    for rows in _buckets(compiled):
        arena.used = 0  # the previous bucket's passes are dead
        passes, groups = _run_bucket(model, [compiled[i] for i in rows], arena)
        log_probs[rows] = np.stack([lp.log_probs for lp in passes], axis=1)
        yield rows, passes, groups
        del passes, groups  # the next bucket runs without these


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


def _finite_log_products(log_probs: np.ndarray, post_ids: Sequence[str]) -> np.ndarray:
    """`_log_products` of `log_probs`, if every post's log final products are
    finite. Else `NumericalError` naming the first post whose are not (a
    NaN parameter, say) and the first layer whose running log product, in
    stack order, is not: the one refusal of non-finite log products, in
    training, evaluation and `predict`."""
    log_f = _log_products(log_probs)
    bad = ~np.isfinite(log_f).all(axis=1)
    if bad.any():
        first = int(bad.argmax())
        # the running products in stack order, as `_log_products` adds them
        running = np.isfinite(np.cumsum(log_probs[first], axis=0)).all(axis=1)
        layer = int(running.argmin())
        raise NumericalError(
            f"post {post_ids[first]!r}: the log final products are not all finite "
            f"from layer {layer} on",
            post_id=post_ids[first],
            layer=layer,
        )
    return log_f


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
    products all underflow to 0.0 still ranks; one whose log products are
    not all finite is refused (`_finite_log_products`)."""
    _, passes = forward(model, post)
    log_f = _finite_log_products(np.stack([lp.log_probs for lp in passes])[None], [post.id])
    return LAYER_ORDER[int(log_f[0].argmax())]


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
    with; a feature-hash model takes none. A failure names the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    # a JSONDecodeError, an int past Python's digit limit, or text that is not UTF-8
    except ValueError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
            raise DataFormatError(f"not a {MODEL_FORMAT} file")
        stored_hash = data["taxonomy_hash"]
        if stored_hash != canonical_hash(tree):
            raise DataFormatError(
                f"model was trained against a different taxonomy (hash {stored_hash[:12]}..)"
            )
        emb = data["embedding"]
        mode = emb["vocabulary_mode"]
        if mode not in ("feature-hash", "file-backed"):
            raise DataFormatError(f"unknown vocabulary_mode {mode!r}")
        if (mode == "file-backed") != (embeddings_table is not None):
            raise DataFormatError(
                "the model is file-backed; pass its embedding table"
                if embeddings_table is None
                else "the model embeds by feature hashing and takes no table"
            )
        cfg = EmbeddingConfig(dimension=emb["dimension"], seed=emb["seed"])
        # the file's own fields, which no constructor holds
        if whole(data["dimension"], "dimension") != cfg.dimension:
            raise DataFormatError("model/embedding dimension mismatch")
        if whole(data["version"], "version") != MODEL_VERSION:
            raise DataFormatError(f"version {data['version']} is not {MODEL_VERSION}")
        layers = []
        for i, entry in enumerate(data["layers"]):
            blocks = {}
            for name, shape in block_shapes(cfg.dimension).items():
                block = np.asarray(entry[name])
                if block.dtype.kind not in "fi":
                    raise DataFormatError(f"layers[{i}].{name} must hold numbers")
                blocks[name] = block.astype(np.float64).reshape(shape)
            layers.append(
                KsatLayerParams(
                    **blocks,
                    a_raw=entry["a_raw"],
                    context=tuple(entry["context"]),
                    outcome=Outcome(entry["outcome"]),
                )
            )
        return KsatModel(
            layers=layers,
            tree=tree,
            embedding_config=cfg,
            epsilon=data.get("epsilon", DEFAULT_EPSILON),
            kg_bias_enabled=data.get("kg_bias_enabled", True),
            embeddings_table=embeddings_table,
        )
    except DataFormatError as exc:  # each check names its field; this names the file
        raise DataFormatError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed model JSON ({exc})") from exc


def clone_model(model: KsatModel) -> KsatModel:
    """Deep copy of parameters sharing the tree, config and embedding table."""
    layers = [
        replace(layer, **{name: getattr(layer, name).copy() for name in ARRAY_BLOCKS})
        for layer in model.layers
    ]
    return replace(model, layers=layers)
