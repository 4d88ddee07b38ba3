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
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset, Post
from .errors import DataFormatError, NumericalError
from .knowledge import LAYER_ORDER, N_OUTCOMES, Outcome
from .model import (
    CompiledPost,
    KsatModel,
    LayerPass,
    clone_model,
    compile_post,
    run_layers,
)

COLLAPSE_FLOOR = 1e-300

_ARRAY_BLOCKS = ("w_query", "w_key", "w_value", "kcls_init", "w_out")


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    seed: int = 0
    init_scale: float | None = None  # defaults to 1/sqrt(dimension)
    fd_step: float = 1e-5
    grad_tolerance: float = 1e-4
    kg_bias_enabled: bool = True

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.init_scale is not None and self.init_scale <= 0:
            raise ValueError("init_scale must be positive")
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
            for name in _ARRAY_BLOCKS:
                yield f"layer{li}.{name}", getattr(layer, name)
            yield f"layer{li}.a_raw", layer.a_raw


def _zero_gradients(model: KsatModel) -> Gradients:
    d = model.dimension
    return Gradients(
        layers=[
            LayerGradients(
                w_query=np.zeros((d, d)),
                w_key=np.zeros((d, d)),
                w_value=np.zeros((d, d)),
                kcls_init=np.zeros(d),
                w_out=np.zeros((d, N_OUTCOMES)),
                a_raw=0.0,
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
        final *= lp.probs
    if bool(np.all(final < COLLAPSE_FLOOR)):
        peaks = [float(lp.log_probs.max()) for lp in passes]
        worst = int(np.argmin(peaks))
        raise NumericalError(
            f"numerical collapse in post {post_id!r}: every final product "
            f"probability fell below 1e-300; layer {worst} has the lowest "
            f"maximum log-probability ({peaks[worst]:.6g})"
        )
    return log_f, final


def _loss_terms(model: KsatModel, compiled: list[CompiledPost], want_passes: bool):
    # dtype-preserving throughout: the finite-difference checker runs this
    # same code on an extended-precision model clone
    total = 0.0
    per_post = []
    for cp in compiled:
        passes = run_layers(model, cp)
        log_f, _ = _post_log_product(passes, cp.post_id)
        m = log_f.max()
        lse = m + np.log(np.exp(log_f - m).sum())
        total += lse - log_f[cp.gold]
        if want_passes:
            r = np.exp(log_f - lse)
            per_post.append((passes, r))
    return total / len(compiled), per_post


def loss(model: KsatModel, batch, embeddings_table=None) -> float:
    """Mean negative log normalized-product probability of the gold outcome."""
    if not batch:
        raise ValueError("loss needs a nonempty batch")
    return float(_loss_compiled(model, compile_batch(model, batch, embeddings_table)))


def _loss_compiled(model: KsatModel, compiled: list[CompiledPost]) -> float:
    value, _ = _loss_terms(model, compiled, want_passes=False)
    return value


def _accumulate_post_gradients(
    model: KsatModel,
    cp: CompiledPost,
    passes: list[LayerPass],
    r: np.ndarray,
    inv_batch: float,
    grads: Gradients,
) -> None:
    """Backward through the stack for one post, adding into `grads`."""
    d = model.dimension
    n = cp.n_sentences
    t = n + 2
    inv_sqrt_d = 1.0 / math.sqrt(d)
    pi, pj = cp.pairs
    onehot = np.zeros(N_OUTCOMES)
    onehot[cp.gold] = 1.0
    g_y = np.zeros((t, d))  # gradient wrt this layer's output tokens
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        lp = passes[li]
        gl = grads.layers[li]
        # readout head
        g_u = (r - onehot) * (1.0 - lp.probs) * inv_batch
        gl.w_out += np.outer(lp.mix, g_u)
        g_m = layer.w_out @ g_u
        g_kg = float(g_u.sum())
        z_cls, z_kcls = lp.y[0], lp.y[1]
        g_alpha = float(g_m @ (z_kcls - z_cls))
        gl.a_raw += g_alpha * lp.alpha * (1.0 - lp.alpha)
        g_y[1] += lp.alpha * g_m
        g_y[0] += (1.0 - lp.alpha) * g_m
        # graph-context bias quotient path
        g_v = np.zeros((t, d))
        g_attn = np.zeros((t, t))
        if model.kg_bias_enabled and pi.size:
            diffs = lp.contribs[pi] - lp.contribs[pj]
            g_diffs = (-2.0 * g_kg) * (cp.inv_dist[li][:, None] * diffs)
            # sentences repeat in pi and pj, so fancy-index += would drop terms
            g_c = np.zeros((n, d))
            np.add.at(g_c, pi, g_diffs)
            np.subtract.at(g_c, pj, g_diffs)
            g_attn[1, 2:] = (g_c * lp.v[2:]).sum(axis=1)
            g_v[2:] += lp.attn[1, 2:, None] * g_c
        # attention output plus residual
        g_attn += g_y @ lp.v.T
        g_v += lp.attn.T @ g_y
        g_s = lp.attn * (g_attn - (g_attn * lp.attn).sum(axis=1, keepdims=True))
        g_q = (g_s @ lp.k) * inv_sqrt_d
        g_k = (g_s.T @ lp.q) * inv_sqrt_d
        gl.w_query += lp.x.T @ g_q
        gl.w_key += lp.x.T @ g_k
        gl.w_value += lp.x.T @ g_v
        g_x = g_y + g_q @ layer.w_query.T + g_k @ layer.w_key.T + g_v @ layer.w_value.T
        # the KCLS slot was overwritten at layer entry: its gradient belongs
        # to this layer's knowledge token, not the previous layer's output
        gl.kcls_init += g_x[1]
        g_x[1] = 0.0
        g_y = g_x


def loss_and_gradients(
    model: KsatModel, compiled: list[CompiledPost]
) -> tuple[float, Gradients]:
    """Analytic mean loss and gradients over pre-compiled posts."""
    if not compiled:
        raise ValueError("need a nonempty batch")
    value, per_post = _loss_terms(model, compiled, want_passes=True)
    grads = _zero_gradients(model)
    inv_batch = 1.0 / len(compiled)
    for cp, (passes, r) in zip(compiled, per_post):
        _accumulate_post_gradients(model, cp, passes, r, inv_batch, grads)
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
        for name in _ARRAY_BLOCKS:
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
    """
    if not _is_extended_precision(np.longdouble):
        raise NumericalError("finite-difference check needs np.longdouble wider than float64")
    work = _extended_precision_clone(model)
    fd = _zero_gradients(model)
    ld_step = np.longdouble(step)
    for li, layer in enumerate(work.layers):
        for name in _ARRAY_BLOCKS:
            arr = getattr(layer, name)
            out = getattr(fd.layers[li], name)
            flat = arr.ravel()
            flat_out = out.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + ld_step
                lp = _loss_compiled(work, compiled)
                flat[j] = orig - ld_step
                lm = _loss_compiled(work, compiled)
                flat[j] = orig
                flat_out[j] = float((lp - lm) / (2.0 * ld_step))
        orig = layer.a_raw
        layer.a_raw = orig + ld_step
        lp = _loss_compiled(work, compiled)
        layer.a_raw = orig - ld_step
        lm = _loss_compiled(work, compiled)
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
                for name in _ARRAY_BLOCKS:
                    block = getattr(layer, name)
                    block -= config.learning_rate * getattr(gl, name)
                layer.a_raw -= config.learning_rate * gl.a_raw
        if config.epochs > 0:
            losses.append(float(_loss_compiled(model, compiled)))
            alphas.append([layer.alpha for layer in model.layers])
    except NumericalError as exc:
        # the loss trace index of the evaluation that failed
        raise NumericalError(f"epoch {len(losses)}: {exc}") from exc
    return TrainResult(model=model, losses=losses, alphas=alphas)
