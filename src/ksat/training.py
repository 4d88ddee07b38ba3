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
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .corpus import Dataset
from .errors import DataFormatError, NumericalError
from .knowledge import LAYER_ORDER, N_OUTCOMES
from .model import (
    ARRAY_BLOCKS,
    CompiledPost,
    KsatModel,
    LayerPass,
    _Arena,
    _Groups,
    _bucket_passes,
    _log_normalized,
    _log_probs_array,
    _log_products,
    _param_dtype,
    _penalty_grad,
    _readout_pass,
    block_shapes,
    clone_model,
    compile_post,
    run_layers,
)

COLLAPSE_FLOOR = 1e-300
LOG_COLLAPSE_FLOOR = math.log(COLLAPSE_FLOOR)


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
        for name in ("learning_rate", "fd_step", "grad_tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")


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


def compile_batch(model: KsatModel, batch) -> list[CompiledPost]:
    """Compile (post, presence, gold) triples; gold must be present."""
    compiled = []
    for post, presence, gold in batch:
        if gold is None:
            raise DataFormatError(f"post {post.id!r} has no gold outcome")
        cp = compile_post(model, post, presence)
        cp.gold = LAYER_ORDER.index(gold)
        compiled.append(cp)
    return compiled


def _collapsed(log_f: np.ndarray) -> np.ndarray:
    """Per post: every outcome's final product is below 1e-300."""
    # the guard reads the log product: the raw one underflows to 0.0 long
    # before its log leaves the float range
    return (log_f < LOG_COLLAPSE_FLOOR).all(axis=1)


def _loss_head(compiled: list[CompiledPost], log_probs: np.ndarray):
    """Mean loss and the ``(posts, outcomes)`` log normalized products, from
    the ``(posts, layers, outcomes)`` per-layer log-probabilities in post
    order.

    The head runs once for the batch. Every step but the mean works row by
    row, and the mean adds the posts' loss terms in post order, so each
    post's numbers are the ones a per-post head would give, bit for bit. A
    collapse names the first collapsed post in batch order.
    """
    log_f = _log_products(log_probs)
    collapsed = _collapsed(log_f)
    if collapsed.any():
        first = int(collapsed.argmax())
        post_id = compiled[first].post_id
        peaks = log_probs[first].max(axis=1).astype(np.float64)
        worst = int(np.argmin(peaks))
        raise NumericalError(
            f"numerical collapse in post {post_id!r}: every final product "
            f"probability fell below 1e-300; layer {worst} has the lowest "
            f"maximum log-probability ({peaks[worst]:.6g})",
            post_id=post_id,
            layer=worst,
            log_peak=float(peaks[worst]),
        )
    log_r = _log_normalized(log_f)
    # each post's loss term, -log r_gold
    terms = -log_r[np.arange(len(compiled)), [cp.gold for cp in compiled]]
    # a running sum, as the per-post loop added them; `sum` would pair them up
    return np.add.accumulate(terms)[-1] / len(compiled), log_r


def _loss_terms(model: KsatModel, compiled: list[CompiledPost], below=None):
    """Mean loss, each post's layer passes, and the ``(posts, outcomes)`` log
    normalized products, with the layer stacks run post by post.

    ``below[i]``, when given, holds post i's reusable lower-layer passes
    (see `run_layers`).
    """
    passes = [run_layers(model, cp, below[i] if below else ()) for i, cp in enumerate(compiled)]
    shape = (len(compiled), len(model.layers), N_OUTCOMES)
    log_probs = np.concatenate([lp.log_probs for post in passes for lp in post]).reshape(shape)
    value, log_r = _loss_head(compiled, log_probs)
    return value, passes, log_r


def _bucket_loss(model: KsatModel, compiled: list[CompiledPost], arena: _Arena):
    """Mean loss with the layer stacks run per length bucket; the number
    `_loss_terms` gives, bit for bit."""
    log_probs = _log_probs_array(model, len(compiled))
    # run every bucket for its log-probabilities, keeping no passes
    deque(_bucket_passes(model, compiled, log_probs, arena), maxlen=0)
    return _loss_head(compiled, log_probs)[0]


def loss(model: KsatModel, batch) -> float:
    """Mean negative log normalized-product probability of the gold outcome."""
    if not batch:
        raise ValueError("loss needs a nonempty batch")
    return float(_loss_terms(model, compile_batch(model, batch))[0])


def _project_back(x, g_tokens, g_weight, weight, g_x, product) -> None:
    """Backward of one projection ``tokens = x @ weight`` over a bucket's
    ``(b*t, d)`` token rows `x`: adds the weight gradient into `g_weight`,
    one GEMM, and the input-gradient term into `g_x`, computed in
    `product`."""
    g_tokens = g_tokens.reshape(x.shape)
    g_weight += x.T @ g_tokens
    g_x += np.matmul(g_tokens, weight.T, out=product)


def _layer_backward(
    model: KsatModel,
    li: int,
    lp: LayerPass,
    g_log_probs: np.ndarray,
    inv_batch: float,
    g_y: np.ndarray,
    grads: Gradients,
    arena: _Arena,
    groups: _Groups | None,
) -> np.ndarray:
    """One layer of a length bucket's backward, adding into `grads`.

    `lp` is the layer's pass over a bucket's posts (see `_run_bucket`) and
    `groups` their stacked sentence groups at this layer, which only
    `_penalty_grad` reads (None for a zero penalty, see `model._groups`).
    Turns `g_y`, the gradient wrt the layer's output tokens, in place into
    the gradient wrt its input tokens and returns it. Its token-sized
    scratch is taken from `arena`.
    """
    layer = model.layers[li]
    gl = grads.layers[li]
    b, t, d = g_y.shape
    inv_sqrt_d = 1.0 / math.sqrt(d)
    z = lp.y[:, :2]  # the CLS and KCLS outputs
    alpha = lp.alpha
    # readout head
    g_u = g_log_probs * (1.0 - lp.layer_probs) * inv_batch
    gl.w_out += lp.mix.T @ g_u
    g_m = g_u @ layer.w_out.T
    g_alpha = float((g_m * (z[:, 1] - z[:, 0])).sum())
    gl.a_raw += g_alpha * alpha * (1.0 - alpha)
    g_y[:, 1] += alpha * g_m
    g_y[:, 0] += (1.0 - alpha) * g_m
    # graph-context bias quotient path
    v = lp.v
    attn = lp.attention
    g_v = arena.take((b, t, d))
    g_v.fill(0.0)
    g_attn = np.zeros((b, t, t))
    if groups is not None:
        g_c = _penalty_grad(lp.kcls_contribs, groups, g_u.sum(axis=1), arena.take((b, t - 2, d)))
        term = arena.take(g_c.shape)
        np.multiply(g_c, v[:, 2:], out=term).sum(axis=2, out=g_attn[:, 1, 2:])
        g_v[:, 2:] += np.multiply(attn[:, 1, 2:, None], g_c, out=term)
    # attention output plus residual
    g_attn += g_y @ v.transpose(0, 2, 1)
    # one product buffer serves this product and the three input-gradient
    # terms below
    product = arena.take((b, t, d))
    g_v += np.matmul(attn.transpose(0, 2, 1), g_y, out=product)
    g_s = attn * (g_attn - (g_attn * attn).sum(axis=2, keepdims=True))
    x = lp.x.reshape(b * t, d)
    g_x = g_y.reshape(b * t, d)  # a view: g_y becomes the input gradient
    product = product.reshape(b * t, d)
    g_qk = arena.take((b, t, d))  # g_q, then g_k
    for g_scores, other, g_weight, weight in (
        (g_s, lp.k, gl.w_query, layer.w_query),
        (g_s.transpose(0, 2, 1), lp.q, gl.w_key, layer.w_key),
    ):
        np.matmul(g_scores, other, out=g_qk)
        g_qk *= inv_sqrt_d
        _project_back(x, g_qk, g_weight, weight, g_x, product)
    _project_back(x, g_v, gl.w_value, layer.w_value, g_x, product)
    # the KCLS slot was overwritten at layer entry: its gradient belongs
    # to this layer's knowledge token, not the previous layer's output
    gl.kcls_init += g_y[:, 1].sum(axis=0)
    g_y[:, 1] = 0.0
    return g_y


def loss_and_gradients(
    model: KsatModel, compiled: list[CompiledPost], arena: _Arena | None = None
) -> tuple[float, Gradients]:
    """Analytic mean loss and gradients over pre-compiled posts.

    Forward and backward run once per sentence count, over all posts of
    that length together, shortest first. A bucket's backward runs right
    after its forward, so one bucket's activations are alive at a time; it
    reads only its posts' rows of the loss head, which works row by row.
    The head itself runs once for the batch at the end, so a collapse names
    the first collapsed post in batch order; after a bucket with a
    collapsed post only the forwards run.

    A bucket's token-sized arrays come from `arena`, `train`'s when it
    passes one and otherwise one made for this call. Each bucket starts it
    empty, and each layer's backward gives its scratch back, so the arena
    at its fullest holds the largest bucket's forward and one layer's
    backward.
    """
    if not compiled:
        raise ValueError("need a nonempty batch")
    if arena is None:
        arena = _Arena(_param_dtype(model))
    log_probs = _log_probs_array(model, len(compiled))
    grads = _zero_gradients(model)
    inv_batch = 1.0 / len(compiled)
    healthy = True
    for rows, passes, groups in _bucket_passes(model, compiled, log_probs, arena):
        log_f = _log_products(log_probs[rows])
        # after a collapse only the forwards run: the head below raises
        healthy = healthy and not _collapsed(log_f).any()
        if healthy:
            # dL/d log p_{l,y} = r_y - [y == gold], the same for every layer
            g_log_probs = np.exp(_log_normalized(log_f))
            g_log_probs[np.arange(len(rows)), [compiled[i].gold for i in rows]] -= 1.0
            g_y = arena.take(passes[-1].y.shape)  # wrt the top layer's output
            g_y.fill(0.0)
            for li in range(len(model.layers) - 1, -1, -1):
                scratch = arena.used
                g_y = _layer_backward(
                    model, li, passes[li], g_log_probs, inv_batch, g_y, grads, arena, groups[li]
                )
                arena.used = scratch  # the layer's scratch is dead; g_y lives on
        del passes, groups  # the next bucket's forward runs without these
    value, _ = _loss_head(compiled, log_probs)
    return float(value), grads


def backward(model: KsatModel, batch) -> Gradients:
    """Analytic gradients for a (post, presence, gold) batch."""
    compiled = compile_batch(model, batch)
    _, grads = loss_and_gradients(model, compiled)
    return grads


@dataclass
class GradientReport:
    """Per-parameter-block max relative error between analytic and numeric.

    `finite_diff_check` also sets `loss_error`, the relative error between
    the loss value training computes and the per-post driver's, and folds
    it into `passed`.
    """

    block_errors: dict[str, float]
    tolerance: float
    passed: bool
    loss_error: float = 0.0

    @property
    def max_error(self) -> float:
        return max(self.block_errors.values())


GRADIENT_FLOOR = 1e-8


def _max_relative_error(val_a, val_b) -> float:
    """Largest |a - b| / max(|a|, |b|, GRADIENT_FLOOR) over the entries; 0
    when there are none."""
    a = np.atleast_1d(np.asarray(val_a, dtype=np.float64)).ravel()
    b = np.atleast_1d(np.asarray(val_b, dtype=np.float64)).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), GRADIENT_FLOOR)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


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
        errors[name_a] = _max_relative_error(val_a, val_n)
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

    Each evaluation reuses passes from the one before (`run_layers`'s
    `below`). A perturbation in one layer leaves the passes through the
    layers below it unchanged, so it runs only the perturbed layer and those
    above. A perturbation of a readout parameter (`w_out`, `a_raw`) leaves
    even the layer's tokens and penalty unchanged, and so every layer above
    it: it reuses the whole stack, with the layer's readout rebuilt
    (`_readout_pass`). The first `w_out` evaluation of a layer follows the
    `kcls_init` ones, whose passes are stale, so it reruns the layer. The
    estimates are the same, bit for bit, as with full-stack evaluations.
    """
    if not _is_extended_precision(np.longdouble):
        raise NumericalError("finite-difference check needs np.longdouble wider than float64")
    work = _extended_precision_clone(model)
    fd = _zero_gradients(model)
    ld_step = np.longdouble(step)
    latest = [[] for _ in compiled]  # each post's passes from the last evaluation

    def central(li: int, set_value, orig, readout: bool) -> float:
        """The central difference of the loss in one scalar of layer li,
        which `set_value` sets; `readout` marks one of `w_out`, `a_raw`."""
        nonlocal rerun, refresh
        values = []
        for value in (orig + ld_step, orig - ld_step):
            set_value(value)
            if readout and refresh:
                layer = work.layers[li]
                below = [[*p[:li], _readout_pass(layer, p[li]), *p[li + 1 :]] for p in latest]
            else:
                below = [p[:rerun] for p in latest]
            loss_value, latest[:], _ = _loss_terms(work, compiled, below)
            values.append(loss_value)
            # once the scalar is restored, layer li's pass is stale: in its
            # readout alone when the scalar is a readout parameter
            rerun, refresh = li, readout
        set_value(orig)
        return float((values[0] - values[1]) / (2.0 * ld_step))

    for li, layer in enumerate(work.layers):
        # how the next evaluation reuses `latest`: it runs layer `rerun` and
        # those above again, unless `refresh` lets a readout evaluation
        # rebuild layer li's readout and reuse every pass. The last
        # evaluation perturbed layer li - 1, so the first one here runs it
        # again.
        rerun, refresh = max(li - 1, 0), False
        for name in ARRAY_BLOCKS:
            flat = getattr(layer, name).ravel()
            flat_out = getattr(fd.layers[li], name).ravel()
            for j in range(flat.size):
                flat_out[j] = central(li, partial(flat.__setitem__, j), flat[j], name == "w_out")
        fd.layers[li].a_raw = central(li, partial(setattr, layer, "a_raw"), layer.a_raw, True)
    return fd


def finite_diff_check(model: KsatModel, batch, config: TrainConfig) -> GradientReport:
    """Verify analytic gradients against central differences, blockwise,
    and the loss value against the per-post driver's.

    Training runs its layer stacks per length bucket; the finite-difference
    evaluations run them post by post (`_loss_terms`). Their loss values at
    the same float64 parameters are compared with the gradient entries'
    error formula and tolerance, so a bucket row that reaches the wrong
    post fails the check.
    """
    compiled = compile_batch(model, batch)
    value, analytic = loss_and_gradients(model, compiled)
    loss_error = _max_relative_error(value, _loss_terms(model, compiled)[0])
    numeric = _fd_gradients(model, compiled, config.fd_step)
    report = gradient_report(analytic, numeric, config.grad_tolerance)
    report.loss_error = loss_error
    report.passed = report.passed and loss_error < config.grad_tolerance
    return report


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


def train(model: KsatModel, train_set: Dataset, config: TrainConfig) -> TrainResult:
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
    compiled = compile_batch(model, batch)
    losses: list[float] = []
    alphas: list[list[float]] = []
    # every epoch runs the same buckets, so after the first one the arena
    # holds them all in one buffer; it goes when this call returns
    arena = _Arena(_param_dtype(model))
    try:
        for _ in range(config.epochs):
            value, grads = loss_and_gradients(model, compiled, arena)
            arena.fit()
            losses.append(value)
            alphas.append([layer.alpha for layer in model.layers])
            for layer, gl in zip(model.layers, grads.layers):
                for name in ARRAY_BLOCKS:
                    block = getattr(layer, name)
                    block -= config.learning_rate * getattr(gl, name)
                layer.a_raw -= config.learning_rate * gl.a_raw
        if config.epochs > 0:
            losses.append(float(_bucket_loss(model, compiled, arena)))
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
