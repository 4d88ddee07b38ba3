"""Loss, hand-derived gradients, finite-difference checks, gradient descent.

The loss is the mean negative log of the normalized final product
probability of the gold outcome. Gradients are fully analytic, derived by
hand through the attention softmax, the residual stack, the KCLS-slot
overwrite between layers, and the graph-context bias quotient; a central
finite-difference checker validates every parameter block.

Derivation sketch (per post, per layer l, gold g, r = normalized product):
  dL/d logit_{l,y} = (r_y - [y==g]) * (1 - p_{l,y})
which follows from dL/d log p_{l,y} = r_y - [y==g] and d log p/d logit =
1 - p; working in log space removes any division by p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset
from .errors import DataFormatError, NumericalError
from .knowledge import LAYER_ORDER, N_OUTCOMES
from .model import (
    ARRAY_BLOCKS,
    CompiledPost,
    KsatModel,
    LayerPass,
    block_shapes,
    clone_model,
    compile_post,
    run_layers,
)

COLLAPSE_FLOOR = 1e-300


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    # Read by nothing: initialization takes its seed from
    # `KsatModel.initialize`. Kept only because the benchmark's workloads
    # pass it (`perfbench/workloads.py`); it goes when a benchmark change
    # stops that.
    seed: int = 0
    fd_step: float = 1e-5
    grad_tolerance: float = 1e-4
    kg_bias_enabled: bool = True

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.fd_step <= 0 or self.grad_tolerance <= 0:
            raise ValueError("fd_step and grad_tolerance must be positive")


@dataclass
class LayerGradients:
    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    kcls_init: np.ndarray
    w_out: np.ndarray
    a_raw: float


@dataclass
class Gradients:
    layers: list[LayerGradients]

    def blocks(self):
        """Yield (name, value) pairs; arrays are live views, a_raw a float."""
        for li, layer in enumerate(self.layers):
            for name in ARRAY_BLOCKS:
                yield f"layer{li}.{name}", getattr(layer, name)
            yield f"layer{li}.a_raw", layer.a_raw


def _zero_gradients(model: KsatModel) -> Gradients:
    shapes = block_shapes(model.dimension)
    return Gradients(
        layers=[
            LayerGradients(
                **{name: np.zeros(shape) for name, shape in shapes.items()}, a_raw=0.0
            )
            for _ in model.layers
        ]
    )


def compile_batch(model: KsatModel, batch, embeddings_table=None) -> list[CompiledPost]:
    """Compile (post, presence, gold) triples; gold must be present."""
    compiled = []
    for post, presence, gold in batch:
        if gold is None:
            raise DataFormatError(f"post {post.id!r} has no gold outcome")
        cp = compile_post(model, post, presence, embeddings_table)
        cp.gold = LAYER_ORDER.index(gold)
        compiled.append(cp)
    return compiled


def _post_log_product(passes: list[LayerPass], post_id: str) -> tuple[np.ndarray, np.ndarray]:
    """(log product vector, final raw product) with the collapse guard."""
    dtype = passes[0].log_probs.dtype
    log_f = np.zeros(N_OUTCOMES, dtype=dtype)
    final = np.ones(N_OUTCOMES, dtype=dtype)
    for lp in passes:
        log_f += lp.log_probs
        final *= lp.layer_probs
    if (final < COLLAPSE_FLOOR).all():
        peaks = [float(lp.log_probs.max()) for lp in passes]
        worst = int(np.argmin(peaks))
        raise NumericalError(
            f"numerical collapse in post {post_id!r}: every final product "
            f"probability fell below 1e-300; layer {worst} has the lowest "
            f"maximum log-probability ({peaks[worst]:.6g})",
            post_id=post_id,
            layer=worst,
            log_peak=peaks[worst],
        )
    return log_f, final


def _loss_terms(model: KsatModel, compiled: list[CompiledPost], below=None):
    """Mean loss and, per post, its layer passes and log normalized product.

    ``below[i]``, when given, holds post i's reusable lower-layer passes
    (see `run_layers`).
    """
    # dtype-preserving throughout: the finite-difference checker runs this
    # same code on an extended-precision model clone
    total = 0.0
    per_post = []
    for i, cp in enumerate(compiled):
        passes = run_layers(model, cp, below[i] if below else ())
        log_f, _ = _post_log_product(passes, cp.post_id)
        m = log_f.max()
        lse = m + np.log(np.exp(log_f - m).sum())
        total += lse - log_f[cp.gold]
        per_post.append((passes, log_f - lse))
    return total / len(compiled), per_post


def loss(model: KsatModel, batch, embeddings_table=None) -> float:
    """Mean negative log normalized-product probability of the gold outcome."""
    if not batch:
        raise ValueError("loss needs a nonempty batch")
    return float(_loss_compiled(model, compile_batch(model, batch, embeddings_table)))


def _loss_compiled(model: KsatModel, compiled: list[CompiledPost]) -> float:
    value, _ = _loss_terms(model, compiled)
    return value


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Same-shape arrays stacked along a new leading axis (one copy)."""
    return np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)


def _accumulate_bucket_gradients(
    model: KsatModel,
    bucket: list[tuple[CompiledPost, list[LayerPass], np.ndarray]],
    inv_batch: float,
    grads: Gradients,
) -> None:
    """Backward through the stack for posts of one length, adding into `grads`.

    The posts share their sentence count, hence their token count and their
    pair indices, so each layer's forward state stacks into ``(B, t, .)``
    arrays without padding and every step runs once per bucket.
    """
    cps = [cp for cp, _, _ in bucket]
    b, d = len(cps), model.dimension
    onehot = np.zeros((b, N_OUTCOMES))
    onehot[np.arange(b), [cp.gold for cp in cps]] = 1.0
    g_log_probs = _stack([r for _, _, r in bucket]) - onehot
    g_y = np.zeros((b, cps[0].n_sentences + 2, d))  # wrt the top layer's output
    for li in range(len(model.layers) - 1, -1, -1):
        lps = [passes[li] for _, passes, _ in bucket]
        g_y = _layer_backward(model, li, cps, lps, g_log_probs, inv_batch, g_y, grads)


def _layer_backward(
    model: KsatModel,
    li: int,
    cps: list[CompiledPost],
    lps: list[LayerPass],
    g_log_probs: np.ndarray,
    inv_batch: float,
    g_y: np.ndarray,
    grads: Gradients,
) -> np.ndarray:
    """One layer of a length bucket's backward, adding into `grads`.

    Turns `g_y`, the gradient wrt the layer's output tokens, in place into
    the gradient wrt its input tokens and returns it. The bucket's stacked
    copies of the activations are the backward's main memory cost, so each
    is made just before its first use and dropped after its last.
    """
    layer = model.layers[li]
    gl = grads.layers[li]
    b, t, d = g_y.shape
    inv_sqrt_d = 1.0 / math.sqrt(d)
    probs = _stack([lp.layer_probs for lp in lps])
    mix = _stack([lp.mix for lp in lps])
    z = _stack([lp.y[:2] for lp in lps])  # the CLS and KCLS outputs
    alpha = lps[0].alpha  # sigmoid(a_raw): the same for every post
    # readout head
    g_u = g_log_probs * (1.0 - probs) * inv_batch
    gl.w_out += mix.T @ g_u
    g_m = g_u @ layer.w_out.T
    g_alpha = float((g_m * (z[:, 1] - z[:, 0])).sum())
    gl.a_raw += g_alpha * alpha * (1.0 - alpha)
    g_y[:, 1] += alpha * g_m
    g_y[:, 0] += (1.0 - alpha) * g_m
    # graph-context bias quotient path
    v = _stack([lp.v for lp in lps])
    attn = _stack([lp.attention for lp in lps])
    g_v = np.zeros((b, t, d))
    g_attn = np.zeros((b, t, t))
    pi, pj = cps[0].pairs
    if model.kg_bias_enabled and pi.size:
        contribs = _stack([lp.kcls_contribs for lp in lps])
        inv_dist = _stack([cp.inv_dist[li] for cp in cps])
        g_kg = g_u.sum(axis=1)
        diffs = contribs[:, pi] - contribs[:, pj]
        g_diffs = (-2.0 * g_kg)[:, None, None] * (inv_dist[:, :, None] * diffs)
        # sentences repeat in pi and pj, so fancy-index += would drop terms
        g_c = np.zeros((b, t - 2, d))
        np.add.at(g_c, (slice(None), pi), g_diffs)
        np.subtract.at(g_c, (slice(None), pj), g_diffs)
        g_attn[:, 1, 2:] = (g_c * v[:, 2:]).sum(axis=2)
        g_v[:, 2:] += attn[:, 1, 2:, None] * g_c
    # attention output plus residual
    g_attn += g_y @ v.transpose(0, 2, 1)
    del v
    g_v += attn.transpose(0, 2, 1) @ g_y
    g_s = attn * (g_attn - (g_attn * attn).sum(axis=2, keepdims=True))
    g_q = g_s @ _stack([lp.k for lp in lps])
    g_q *= inv_sqrt_d
    g_k = g_s.transpose(0, 2, 1) @ _stack([lp.q for lp in lps])
    g_k *= inv_sqrt_d
    # weight blocks: one GEMM each over the bucket's (b*t, d) token rows
    x = _stack([lp.x for lp in lps]).reshape(b * t, d)
    g_q, g_k, g_v = (a.reshape(b * t, d) for a in (g_q, g_k, g_v))
    gl.w_query += x.T @ g_q
    gl.w_key += x.T @ g_k
    gl.w_value += x.T @ g_v
    del x
    g_x = g_y.reshape(b * t, d)  # a view: g_y becomes the input gradient
    g_x += g_q @ layer.w_query.T
    g_x += g_k @ layer.w_key.T
    g_x += g_v @ layer.w_value.T
    # the KCLS slot was overwritten at layer entry: its gradient belongs
    # to this layer's knowledge token, not the previous layer's output
    gl.kcls_init += g_y[:, 1].sum(axis=0)
    g_y[:, 1] = 0.0
    return g_y


def loss_and_gradients(
    model: KsatModel, compiled: list[CompiledPost]
) -> tuple[float, Gradients]:
    """Analytic mean loss and gradients over pre-compiled posts.

    The forward runs post by post; the backward runs once per sentence
    count, over all posts of that length together, shortest first.
    """
    if not compiled:
        raise ValueError("need a nonempty batch")
    value, per_post = _loss_terms(model, compiled)
    grads = _zero_gradients(model)
    inv_batch = 1.0 / len(compiled)
    buckets: dict[int, list] = {}
    for cp, (passes, log_r) in zip(compiled, per_post):
        buckets.setdefault(cp.n_sentences, []).append((cp, passes, np.exp(log_r)))
    for n in sorted(buckets):
        _accumulate_bucket_gradients(model, buckets[n], inv_batch, grads)
    return float(value), grads


def backward(model: KsatModel, batch, embeddings_table=None) -> Gradients:
    """Analytic gradients for a (post, presence, gold) batch."""
    compiled = compile_batch(model, batch, embeddings_table)
    _, grads = loss_and_gradients(model, compiled)
    return grads


@dataclass
class GradientReport:
    """Per-parameter-block max relative error between analytic and numeric."""

    block_errors: dict[str, float]
    tolerance: float
    passed: bool

    @property
    def max_error(self) -> float:
        return max(self.block_errors.values())


GRADIENT_FLOOR = 1e-8


def gradient_report(
    analytic: Gradients, numeric: Gradients, tolerance: float
) -> GradientReport:
    """Compare two gradient sets blockwise with a scale-aware relative error.

    The error for an entry is |a - b| / max(|a|, |b|, GRADIENT_FLOOR).
    Entries with gradients near the floor are judged against absolute noise,
    which is why `_fd_gradients` evaluates the loss in extended precision:
    double-precision rounding of the loss alone contributes ~1e-11 of
    cancellation noise at step 1e-5, an order above what a 1e-4 relative
    tolerance permits at the floor scale.
    """
    errors: dict[str, float] = {}
    for (name_a, val_a), (name_n, val_n) in zip(analytic.blocks(), numeric.blocks()):
        assert name_a == name_n
        a = np.atleast_1d(np.asarray(val_a, dtype=np.float64)).ravel()
        b = np.atleast_1d(np.asarray(val_n, dtype=np.float64)).ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), GRADIENT_FLOOR)
        errors[name_a] = float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
    passed = all(err < tolerance for err in errors.values())
    return GradientReport(block_errors=errors, tolerance=tolerance, passed=passed)


def _is_extended_precision(dtype) -> bool:
    """True when ``dtype`` is finer than float64; ``np.longdouble`` is not on
    Windows and Apple-silicon builds."""
    return bool(np.finfo(dtype).eps < np.finfo(np.float64).eps)


def _extended_precision_clone(model: KsatModel) -> KsatModel:
    """Clone with parameters upcast so loss evaluations round far below the
    comparison floor; the forward code is dtype-preserving, so the clone runs
    the identical code path."""
    clone = clone_model(model)
    for layer in clone.layers:
        for name in ARRAY_BLOCKS:
            setattr(layer, name, getattr(layer, name).astype(np.longdouble))
        layer.a_raw = np.longdouble(layer.a_raw)
    return clone


def _fd_gradients(
    model: KsatModel, compiled: list[CompiledPost], step: float
) -> Gradients:
    """Central finite differences over every scalar parameter.

    Evaluations run on an extended-precision clone: the difference quotient
    cancels ~15 leading digits of the loss near a step of 1e-5, so
    double-precision evaluation would leave noise of order 1e-11 on every
    estimate — larger than tolerance*floor for near-zero gradient entries,
    so a platform without a wider ``np.longdouble`` is refused.

    A perturbation in one layer leaves the passes through the layers below
    it unchanged, so each evaluation reuses them from the one before and
    runs only the perturbed layer and those above. The estimates are the
    same, bit for bit, as with full-stack evaluations.
    """
    if not _is_extended_precision(np.longdouble):
        raise NumericalError("finite-difference check needs np.longdouble wider than float64")
    work = _extended_precision_clone(model)
    fd = _zero_gradients(model)
    ld_step = np.longdouble(step)
    latest = [[] for _ in compiled]  # each post's passes from the last evaluation

    def evaluate(reusable: int):
        """Loss, reusing the last evaluation's passes below layer `reusable`."""
        value, per_post = _loss_terms(work, compiled, [p[:reusable] for p in latest])
        latest[:] = [passes for passes, _ in per_post]
        return value

    for li, layer in enumerate(work.layers):
        # the last evaluation perturbed layer li - 1; every later one
        # restores it and perturbs only layer li
        reusable = max(li - 1, 0)
        for name in ARRAY_BLOCKS:
            arr = getattr(layer, name)
            out = getattr(fd.layers[li], name)
            flat = arr.ravel()
            flat_out = out.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + ld_step
                lp = evaluate(reusable)
                reusable = li
                flat[j] = orig - ld_step
                lm = evaluate(reusable)
                flat[j] = orig
                flat_out[j] = float((lp - lm) / (2.0 * ld_step))
        orig = layer.a_raw
        layer.a_raw = orig + ld_step
        lp = evaluate(reusable)
        layer.a_raw = orig - ld_step
        lm = evaluate(reusable)
        layer.a_raw = orig
        fd.layers[li].a_raw = float((lp - lm) / (2.0 * ld_step))
    return fd


def finite_diff_check(model: KsatModel, batch, config: TrainConfig) -> GradientReport:
    """Verify analytic gradients against central differences, blockwise."""
    compiled = compile_batch(model, batch)
    _, analytic = loss_and_gradients(model, compiled)
    numeric = _fd_gradients(model, compiled, config.fd_step)
    return gradient_report(analytic, numeric, config.grad_tolerance)


@dataclass
class TrainResult:
    model: KsatModel
    losses: list[float] = field(default_factory=list)
    alphas: list[list[float]] = field(default_factory=list)

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def train(
    model: KsatModel, train_set: Dataset, config: TrainConfig, embeddings_table=None
) -> TrainResult:
    """Plain full-batch gradient descent; deterministic given the seed.

    The input model is left untouched; a trained clone is returned. The loss
    trace has ``epochs + 1`` entries (initial through final); with 0 epochs
    both traces are empty and the returned model equals the input.
    Initialization is the caller's (the only stochastic element); the
    ablation switch is stamped onto the returned model so later evaluation
    matches training behavior.
    """
    model = clone_model(model)
    model.kg_bias_enabled = config.kg_bias_enabled
    posts = sorted(train_set.posts, key=lambda p: p.id)
    if not posts:
        raise ValueError("training set is empty")
    batch = [(post, post.sentence_presence, post.gold) for post in posts]
    compiled = compile_batch(model, batch, embeddings_table)
    losses: list[float] = []
    alphas: list[list[float]] = []
    try:
        for _ in range(config.epochs):
            value, grads = loss_and_gradients(model, compiled)
            losses.append(value)
            alphas.append([layer.alpha for layer in model.layers])
            for layer, gl in zip(model.layers, grads.layers):
                for name in ARRAY_BLOCKS:
                    block = getattr(layer, name)
                    block -= config.learning_rate * getattr(gl, name)
                layer.a_raw -= config.learning_rate * gl.a_raw
        if config.epochs > 0:
            losses.append(float(_loss_compiled(model, compiled)))
            alphas.append([layer.alpha for layer in model.layers])
    except NumericalError as exc:
        # the loss trace index of the evaluation that failed
        raise NumericalError(
            f"epoch {len(losses)}: {exc}",
            epoch=len(losses),
            post_id=exc.post_id,
            layer=exc.layer,
            log_peak=exc.log_peak,
        ) from exc
    return TrainResult(model=model, losses=losses, alphas=alphas)
