"""Loss semantics, analytic-vs-numeric gradient agreement, training loop."""

from __future__ import annotations

import dataclasses
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ksat.corpus import Dataset, Post, default_synthetic_spec, generate_synthetic
from ksat.embeddings import sentence_key
from ksat.errors import DataFormatError, NumericalError
from ksat.knowledge import LAYER_ORDER, N_OUTCOMES, Outcome
from ksat.model import KsatModel, LayerPass, forward, run_layers
from ksat import model as model_module
from ksat import training
from ksat.training import (
    GRADIENT_FLOOR,
    Gradients,
    GradientReport,
    LayerGradients,
    TrainConfig,
    _extended_precision_clone,
    _fd_gradients,
    _is_extended_precision,
    _zero_gradients,
    backward,
    compile_batch,
    finite_diff_check,
    gradient_report,
    loss,
    loss_and_gradients,
    train,
)

POST_A = Post(
    id="a",
    sentences=["wish to be dead.", "a gun nearby."],
    gold=Outcome.IDEATION_1,
    sentence_presence=[(1, 0, 0), (0, 0, 1)],
)
POST_B = Post(
    id="b",
    sentences=["thinking about my life."],
    gold=Outcome.INDICATION_OR_NONE,
    sentence_presence=[(0, 1, 0)],
)
POST_C = Post(
    id="c",
    sentences=["rain fell late.", "wish to be dead.", "ending my life."],
    gold=Outcome.BEHAVIOR_OR_ATTEMPT,
    sentence_presence=[(0, 0, 0), (1, 0, 0), (0, 1, 0)],
)

POST_D = Post(
    id="d",
    sentences=["ending my life.", "thinking about my life."],
    gold=Outcome.IDEATION_2,
    sentence_presence=[(0, 1, 1), (0, 1, 0)],
)
# five sentences, each in four pairs, three of them restricting to the same
# bits in the first layer
POST_E = Post(
    id="e",
    sentences=["wish to be dead.", "a gun nearby.", "rain fell late.",
               "wish it would end.", "ending my life."],
    gold=Outcome.BEHAVIOR_OR_ATTEMPT,
    sentence_presence=[(1, 0, 0), (0, 0, 1), (0, 0, 0), (1, 1, 0), (0, 1, 0)],
)
POST_F = Post(
    id="f",
    sentences=["a gun nearby.", "ending my life.", "wish to be dead.",
               "rain fell late.", "wish it would end."],
    gold=Outcome.IDEATION_1,
    sentence_presence=[(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 0), (0, 0, 0)],
)
# 1, 2, 2, 3, 5 and 5 sentences: three buckets hold more than one post
MIXED_LENGTHS = (POST_B, POST_A, POST_D, POST_C, POST_E, POST_F)


def as_batch(*posts: Post):
    return [(p, p.sentence_presence, p.gold) for p in posts]


def zeroed(model: KsatModel) -> KsatModel:
    for layer in model.layers:
        layer.w_query[:] = 0.0
        layer.w_key[:] = 0.0
        layer.w_value[:] = 0.0
        layer.kcls_init[:] = 0.0
        layer.w_out[:] = 0.0
        layer.a_raw = 0.0
    return model


def checkable_model(make_model, seed: int = 0, dimension: int = 8) -> KsatModel:
    """Well-conditioned gradient-check fixture: unit epsilon, live value path."""
    return make_model(
        dimension=dimension, seed=seed, value_scale=0.25, epsilon=1.0
    )


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.05
        assert config.epochs == 200
        assert config.fd_step == 1e-5
        assert config.grad_tolerance == 1e-4
        assert config.kg_bias_enabled is True

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(fd_step=0.0)
        with pytest.raises(ValueError):
            TrainConfig(grad_tolerance=-1.0)

    @pytest.mark.parametrize("name", ["learning_rate", "fd_step", "grad_tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            TrainConfig(**{name: value})


class TestLoss:
    def test_indifferent_model_scores_log_four(self, make_model):
        model = zeroed(make_model(dimension=8))
        value = loss(model, as_batch(POST_A, POST_B))
        assert value == pytest.approx(math.log(N_OUTCOMES), rel=1e-12)

    def test_duplicate_posts_average_to_the_single_post_loss(self, make_model):
        model = make_model(dimension=8, seed=3, value_scale=0.2)
        single = loss(model, as_batch(POST_A))
        doubled = loss(model, as_batch(POST_A, POST_A))
        assert doubled == pytest.approx(single, rel=1e-12)

    def test_empty_batch_rejected(self, make_model):
        with pytest.raises(ValueError):
            loss(make_model(), [])

    def test_missing_gold_rejected(self, make_model):
        post = Post(id="x", sentences=["hello."], sentence_presence=[(0, 0, 0)])
        with pytest.raises(DataFormatError):
            loss(make_model(), [(post, post.sentence_presence, None)])

    def test_collapse_raises_numerical_error(self, make_model):
        # Identical connection vectors at distance 0 weight each pair by
        # 1/epsilon; an identity value projection makes the two sentence
        # contributions diverge, driving every layer's bias to ~-1e6 and the
        # product of per-layer probabilities far below the collapse floor.
        model = make_model(dimension=8, seed=0, value_scale=0.0)
        for layer in model.layers:
            layer.w_value[:] = np.eye(8)
        post = Post(
            id="z",
            sentences=["wish to be dead.", "a gun nearby."],
            gold=Outcome.IDEATION_1,
            sentence_presence=[(1, 0, 0), (1, 0, 0)],
        )
        with pytest.raises(NumericalError, match="collapse"):
            loss(model, as_batch(post))


def per_post_reference(model: KsatModel, compiled):
    """Mean loss and log normalized products, one post at a time: each
    post's layers added in stack order, the loss terms summed in post order."""
    total = 0.0
    rows = []
    for cp in compiled:
        passes = run_layers(model, cp)
        log_f = np.zeros(N_OUTCOMES, dtype=passes[0].log_probs.dtype)
        for lp in passes:
            log_f += lp.log_probs
        m = log_f.max()
        lse = m + np.log(np.exp(log_f - m).sum())
        total += lse - log_f[cp.gold]
        rows.append(log_f - lse)
    return total / len(compiled), rows


def collapsing_post(post_id: str, n_sentences: int) -> Post:
    """Sentences at Hamming distance 0 in every layer: with identity value
    projections the pair penalty drives every layer to ~-1e6."""
    return Post(
        id=post_id,
        sentences=[f"wish to be dead {i}." for i in range(n_sentences)],
        gold=Outcome.IDEATION_1,
        sentence_presence=[(1, 0, 0)] * n_sentences,
    )


class TestBatchedLossHead:
    """`_loss_terms` runs the head over all posts at once; each number is
    the one a per-post head gives, bit for bit."""

    def _batch(self, tree):
        spec = default_synthetic_spec(48, 11, tree)
        spec.sentences_per_post = (1, 5)
        posts = generate_synthetic(spec, tree).posts
        assert len({len(p.sentences) for p in posts}) > 3
        return as_batch(*posts)

    @pytest.mark.parametrize("extended", [False, True])
    def test_loss_equals_the_per_post_sum_in_post_order(self, make_model, tree, extended):
        model = checkable_model(make_model, seed=4)
        compiled = compile_batch(model, self._batch(tree))
        if extended:
            model = _extended_precision_clone(model)
        value, passes, log_r = training._loss_terms(model, compiled)
        want, rows = per_post_reference(model, compiled)
        assert type(value) is type(want)
        assert value == want
        assert len(passes) == len(compiled)
        np.testing.assert_array_equal(log_r, np.stack(rows))
        if not extended:
            assert loss(model, self._batch(tree)) == float(want)

    def test_bucketed_training_loss_equals_the_per_post_loss(self, make_model, tree):
        # `loss` runs the stacks post by post; `loss_and_gradients` and the
        # final entry of `train`'s trace run them per length bucket
        model = checkable_model(make_model, seed=4)
        batch = self._batch(tree)
        value, _ = loss_and_gradients(model, compile_batch(model, batch))
        assert value == loss(model, batch)
        posts = sorted((post for post, _, _ in batch), key=lambda p: p.id)
        result = train(model, Dataset(posts=posts), TrainConfig(epochs=2))
        assert result.final_loss == loss(result.model, as_batch(*posts))

    def test_collapse_in_a_longer_bucket_is_named_first(self, make_model, monkeypatch):
        # buckets run shortest first, but the head names the first collapsed
        # post in batch order; the backward stops at the first collapsed
        # bucket, here the second of three
        model = make_model(dimension=8, seed=0, value_scale=0.0)
        for layer in model.layers:
            layer.w_value[:] = np.eye(8)
        first, second = collapsing_post("z4", 4), collapsing_post("z2", 2)
        compiled = compile_batch(model, as_batch(POST_B, first, second))
        backward_calls = []
        real = training._layer_backward
        monkeypatch.setattr(
            training,
            "_layer_backward",
            lambda *args: backward_calls.append(args[1]) or real(*args),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for evaluate in (training._loss_terms, loss_and_gradients):
                with pytest.raises(NumericalError, match="collapse in post 'z4'") as info:
                    evaluate(model, compiled)
                assert info.value.post_id == "z4"
        assert backward_calls == [3, 2, 1, 0]  # POST_B's bucket only

    def test_collapse_names_the_first_collapsed_post(self, make_model):
        model = make_model(dimension=8, seed=0, value_scale=0.0)
        for layer in model.layers:
            layer.w_value[:] = np.eye(8)
        first, second = collapsing_post("z1", 2), collapsing_post("z2", 4)
        compiled = compile_batch(model, as_batch(POST_B, first, second))
        assert training._loss_terms(model, compiled[:1])[0] < 10.0  # healthy
        peaks = [float(lp.log_probs.max()) for lp in run_layers(model, compiled[1])]
        worst = int(np.argmin(peaks))
        for evaluate in (training._loss_terms, loss_and_gradients):
            with pytest.raises(NumericalError, match="collapse") as info:
                evaluate(model, compiled)
            error = info.value
            assert error.post_id == "z1"
            assert error.layer == worst
            assert error.log_peak == peaks[worst] < -1e3
            assert str(error) == (
                "numerical collapse in post 'z1': every final product "
                "probability fell below 1e-300; layer "
                f"{worst} has the lowest maximum log-probability ({peaks[worst]:.6g})"
            )


# Per-layer (rows) target logits for each outcome (columns), before scaling.
# Every outcome's column sums to at most -7, so at scale s the best
# outcome's log product is about -7 s.
AIMED_LOGITS = -np.array(
    [
        [1.0, 2.0, 2.0, 2.5],
        [2.0, 1.5, 2.5, 2.0],
        [1.5, 2.5, 1.0, 2.0],
        [2.5, 1.5, 2.5, 2.0],
    ]
)


def aimed_model(make_model, post: Post, logits: np.ndarray):
    """A penalty-free model whose w_out gives `post` the per-layer `logits`,
    and the compiled post. `mix` does not depend on w_out, so each layer's
    w_out is aimed along its own `mix`."""
    model = make_model(dimension=8, seed=2, kg_bias_enabled=False)
    compiled = compile_batch(model, as_batch(post))
    for layer, lp, row in zip(model.layers, run_layers(model, compiled[0]), logits):
        layer.w_out[:] = np.outer(lp.mix / lp.mix.dot(lp.mix), row)
    return model, compiled


def collapse_message(post_id: str, passes) -> tuple[int, float, str]:
    peaks = [float(lp.log_probs.max()) for lp in passes]
    worst = int(np.argmin(peaks))
    return worst, peaks[worst], (
        f"numerical collapse in post {post_id!r}: every final product "
        "probability fell below 1e-300; layer "
        f"{worst} has the lowest maximum log-probability ({peaks[worst]:.6g})"
    )


class TestLogSpaceGuard:
    """The guard compares the log product with ln 1e-300; it must decide
    as a guard on the raw product of the layer probabilities would."""

    def test_fires_exactly_when_the_raw_product_falls_below_the_floor(self, make_model):
        model, compiled = aimed_model(make_model, POST_C, AIMED_LOGITS)
        aimed = [layer.w_out.copy() for layer in model.layers]
        best_logs, decisions = [], []
        for scale in np.linspace(680.0, 700.0, 41) / 7.0:
            for layer, w_out in zip(model.layers, aimed):
                layer.w_out[:] = scale * w_out
            passes = run_layers(model, compiled[0])
            raw = np.ones(N_OUTCOMES)
            log_f = np.zeros(N_OUTCOMES)
            for lp in passes:
                raw *= lp.layer_probs
                log_f += lp.log_probs
            best_logs.append(float(log_f.max()))
            raw_fails = bool((raw < training.COLLAPSE_FLOOR).all())
            try:
                training._loss_terms(model, compiled)
            except NumericalError as exc:
                assert raw_fails, scale
                worst, peak, message = collapse_message(POST_C.id, passes)
                assert (exc.post_id, exc.layer, exc.log_peak) == (POST_C.id, worst, peak)
                assert str(exc) == message
            else:
                assert not raw_fails, scale
            decisions.append(raw_fails)
        assert -701.0 < min(best_logs) < training.LOG_COLLAPSE_FLOOR < max(best_logs) < -679.0
        assert training.LOG_COLLAPSE_FLOOR == math.log(1e-300)
        assert True in decisions and False in decisions

    def test_a_layer_probability_underflowing_to_zero_still_collapses(self, make_model):
        # layer 2's logits are -760: their probabilities underflow to 0.0
        # while their logs stay finite
        logits = np.full((4, N_OUTCOMES), -0.5)
        logits[2] = -760.0
        model, compiled = aimed_model(make_model, POST_C, logits)
        passes = run_layers(model, compiled[0])
        assert (passes[2].layer_probs == 0.0).all()
        assert np.isfinite(passes[2].log_probs).all()
        worst, peak, message = collapse_message(POST_C.id, passes)
        assert worst == 2 and -761.0 < peak < -759.0
        for evaluate in (training._loss_terms, loss_and_gradients):
            with pytest.raises(NumericalError) as info:
                evaluate(model, compiled)
            assert str(info.value) == message
            assert (info.value.post_id, info.value.layer, info.value.log_peak) == (
                POST_C.id, worst, peak
            )


class TestBackward:
    def test_gradients_all_finite_on_random_batch(self, make_model):
        # POST_C holds two sentences with identical flags, which the first
        # layer weighs at 1/epsilon; unit epsilon keeps the bias moderate.
        model = make_model(dimension=16, seed=21, value_scale=0.25, epsilon=1.0)
        grads = backward(model, as_batch(POST_A, POST_B, POST_C))
        for name, value in grads.blocks():
            assert np.all(np.isfinite(np.asarray(value))), name

    def test_first_layer_gate_gradient_vanishes_when_streams_agree(self, make_model):
        # with a zero knowledge token, both reserved rows enter layer 0 as
        # zero vectors, so its data and knowledge outputs coincide and the
        # gate has nothing to trade off
        model = make_model(dimension=8, seed=5, value_scale=0.25)
        model.layers[0].kcls_init[:] = 0.0
        grads = backward(model, as_batch(POST_A, POST_B))
        assert grads.layers[0].a_raw == 0.0
        assert any(g.a_raw != 0.0 for g in grads.layers[1:])

    def test_gradients_do_not_depend_on_bucket_mates(self, make_model):
        # a batch's gradient is the inv_batch-weighted sum of its posts'
        # single-post gradients, whichever posts share a length bucket
        model = checkable_model(make_model, seed=4)
        whole = list(backward(model, as_batch(*MIXED_LENGTHS)).blocks())
        singles = [list(backward(model, as_batch(p)).blocks()) for p in MIXED_LENGTHS]
        for i, (name, value) in enumerate(whole):
            expected = sum(np.asarray(s[i][1]) for s in singles) / len(MIXED_LENGTHS)
            scale = float(np.abs(expected).max())
            assert scale > 0.0, name
            assert float(np.abs(np.asarray(value) - expected).max()) <= 1e-12 * scale, name

    def test_bias_path_inert_exactly_at_zero_value_projections(self, make_model):
        on = make_model(dimension=8, seed=7, value_scale=0.0, kg_bias_enabled=True)
        off = make_model(dimension=8, seed=7, value_scale=0.0, kg_bias_enabled=False)
        batch = as_batch(POST_A, POST_C)
        grads_on = backward(on, batch)
        grads_off = backward(off, batch)
        for (name, a), (_, b) in zip(grads_on.blocks(), grads_off.blocks()):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b), err_msg=name)

    def test_bias_path_contributes_away_from_zero_value_projections(self, make_model):
        on = make_model(
            dimension=8, seed=7, value_scale=0.25, epsilon=1.0, kg_bias_enabled=True
        )
        off = make_model(
            dimension=8, seed=7, value_scale=0.25, epsilon=1.0, kg_bias_enabled=False
        )
        batch = as_batch(POST_A, POST_C)
        grads_on = backward(on, batch)
        grads_off = backward(off, batch)
        assert any(
            not np.array_equal(np.asarray(a), np.asarray(b))
            for (_, a), (_, b) in zip(grads_on.blocks(), grads_off.blocks())
        )


class TestGradientReport:
    def _single_layer_grads(self, fill: float, d: int = 2) -> Gradients:
        return Gradients(
            layers=[
                LayerGradients(
                    w_query=np.full((d, d), fill),
                    w_key=np.full((d, d), fill),
                    w_value=np.full((d, d), fill),
                    kcls_init=np.full(d, fill),
                    w_out=np.full((d, N_OUTCOMES), fill),
                    a_raw=fill,
                )
            ]
        )

    def test_identical_gradients_report_zero_error(self):
        a = self._single_layer_grads(0.5)
        report = gradient_report(a, self._single_layer_grads(0.5), tolerance=1e-4)
        assert report.passed
        assert report.max_error == 0.0
        assert set(report.block_errors) == {
            "layer0.w_query",
            "layer0.w_key",
            "layer0.w_value",
            "layer0.kcls_init",
            "layer0.w_out",
            "layer0.a_raw",
        }

    def test_relative_error_uses_the_larger_magnitude(self):
        a = self._single_layer_grads(1.0)
        b = self._single_layer_grads(1.0 + 2e-4)
        report = gradient_report(a, b, tolerance=1e-4)
        expected = 2e-4 / (1.0 + 2e-4)
        assert report.block_errors["layer0.w_out"] == pytest.approx(expected, rel=1e-9)
        assert not report.passed

    def test_near_zero_entries_are_judged_against_the_floor(self):
        a = self._single_layer_grads(0.0)
        b = self._single_layer_grads(5e-9)
        report = gradient_report(a, b, tolerance=1e-4)
        assert report.block_errors["layer0.w_query"] == pytest.approx(
            5e-9 / GRADIENT_FLOOR, rel=1e-12
        )

    def test_max_error_property(self):
        a = self._single_layer_grads(1.0)
        b = self._single_layer_grads(1.0)
        b.layers[0].w_key[0, 0] = 1.1
        report = gradient_report(a, b, tolerance=1e-4)
        assert report.max_error == report.block_errors["layer0.w_key"]


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_analytic_matches_numeric_on_small_fixtures(self, make_model, seed):
        model = checkable_model(make_model, seed=seed)
        report = finite_diff_check(
            model, as_batch(POST_A, POST_B), TrainConfig()
        )
        assert isinstance(report, GradientReport)
        assert report.passed, report.block_errors
        assert report.max_error < 1e-4

    def test_numeric_oracle_flags_an_injected_sign_bug(self, make_model):
        model = checkable_model(make_model, seed=2)
        batch = as_batch(POST_A, POST_B)
        compiled = compile_batch(model, batch)
        _, analytic = loss_and_gradients(model, compiled)
        numeric = _fd_gradients(model, compiled, 1e-5)
        assert gradient_report(analytic, numeric, 1e-4).passed
        analytic.layers[1].w_query *= -1.0  # deliberate sign bug
        broken = gradient_report(analytic, numeric, 1e-4)
        assert not broken.passed
        assert broken.block_errors["layer1.w_query"] > 1e-4

    def test_long_post_penalty_gradient_matches(self, make_model):
        # the pair gradient must accumulate every pair a sentence belongs to
        model = checkable_model(make_model, seed=5, dimension=4)
        report = finite_diff_check(model, as_batch(POST_E), TrainConfig())
        assert report.passed, report.block_errors

    def test_mixed_length_batch_matches(self, make_model):
        # the backward runs once per sentence count: the 2- and 5-sentence
        # buckets each stack two posts, so the pair scatter runs over a
        # bucket axis
        model = checkable_model(make_model, seed=6, dimension=4)
        report = finite_diff_check(model, as_batch(*MIXED_LENGTHS), TrainConfig())
        assert report.passed, report.block_errors

    def test_layer_reuse_matches_full_stack_evaluations(self, make_model):
        # each estimate reuses the passes below the perturbed layer; the
        # first entry of a layer follows the last evaluation of the layer
        # beneath, whose passes that layer must not reuse. A readout
        # parameter (w_out, a_raw) reuses every pass with the layer's
        # readout rebuilt, except the first w_out entry, which follows the
        # last kcls_init evaluation and must run the layer again
        model = checkable_model(make_model, seed=7, dimension=4)
        compiled = compile_batch(model, as_batch(POST_A, POST_B, POST_C))
        fd = _fd_gradients(model, compiled, 1e-5)
        work = _extended_precision_clone(model)
        step = np.longdouble(1e-5)

        def central(set_value, orig):
            set_value(orig + step)
            up = training._loss_terms(work, compiled)[0]
            set_value(orig - step)
            down = training._loss_terms(work, compiled)[0]
            set_value(orig)
            return float((up - down) / (2.0 * step))

        for li, layer in enumerate(work.layers):
            for name, entries in (("w_query", (0, -1)), ("kcls_init", (-1,)), ("w_out", None)):
                flat = getattr(layer, name).ravel()
                for j in entries or range(flat.size):
                    expected = central(lambda v: flat.__setitem__(j, v), flat[j])
                    assert getattr(fd.layers[li], name).ravel()[j] == expected, (li, name, j)
            expected = central(lambda v: setattr(layer, "a_raw", v), layer.a_raw)
            assert fd.layers[li].a_raw == expected

    def test_each_evaluation_runs_the_stack_once_per_post(self, make_model, monkeypatch):
        # one `run_layers` call per post for the loss comparison and for
        # each of the two evaluations per scalar, however many layers it
        # reuses: the benchmark's traced gradcheck run pins this count
        calls = []
        real = training.run_layers

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "run_layers", counted)
        model = checkable_model(make_model, seed=7, dimension=4)
        batch = as_batch(POST_A, POST_B, POST_C)
        finite_diff_check(model, batch, TrainConfig())
        n_scalars = sum(np.size(value) for _, value in _zero_gradients(model).blocks())
        assert n_scalars == len(model.layers) * (3 * 4 * 4 + 4 + 4 * N_OUTCOMES + 1)
        assert len(calls) == len(batch) * (1 + 2 * n_scalars)

    def test_loss_value_matches_the_per_post_driver(self, make_model):
        model = checkable_model(make_model, seed=6, dimension=4)
        report = finite_diff_check(model, as_batch(*MIXED_LENGTHS), TrainConfig())
        assert report.passed, (report.loss_error, report.block_errors)
        assert report.loss_error == 0.0  # bit for bit

    def test_a_misrouted_bucket_row_fails_the_check(self, make_model, monkeypatch):
        # reversing the rows of the two-sentence bucket hands post a's layer
        # passes to post d and back; only the loss comparison ties the
        # bucket driver's rows to their posts independently of it
        real = model_module._run_bucket

        def reversed_rows(model, cps, arena):
            passes, groups = real(model, cps, arena)
            if cps[0].n_sentences != 2:
                return passes, groups
            assert len(cps) == 2
            return [
                LayerPass(
                    **{
                        f.name: getattr(lp, f.name)[::-1] if f.name != "alpha" else lp.alpha
                        for f in dataclasses.fields(LayerPass)
                    }
                )
                for lp in passes
            ], [
                model_module._stack_groups([cp.groups[li] for cp in cps[::-1]])
                for li in range(len(groups))
            ]

        monkeypatch.setattr(model_module, "_run_bucket", reversed_rows)
        model = checkable_model(make_model, seed=6, dimension=4)
        report = finite_diff_check(model, as_batch(*MIXED_LENGTHS), TrainConfig())
        assert not report.passed
        assert report.loss_error > 100 * report.tolerance

    def test_float64_is_not_extended_precision(self):
        assert not _is_extended_precision(np.float64)
        assert not _is_extended_precision(np.float32)

    def test_check_refuses_platforms_without_extended_precision(
        self, make_model, monkeypatch
    ):
        monkeypatch.setattr(training, "_is_extended_precision", lambda dtype: False)
        model = checkable_model(make_model)
        compiled = compile_batch(model, as_batch(POST_B))
        with pytest.raises(NumericalError, match="longdouble"):
            _fd_gradients(model, compiled, 1e-5)

    def test_zero_parameter_model_checks_cleanly(self, make_model):
        model = zeroed(make_model(dimension=8, epsilon=1.0))
        report = finite_diff_check(model, as_batch(POST_A, POST_B), TrainConfig())
        assert report.passed, report.block_errors
        for value in report.block_errors.values():
            assert math.isfinite(value)

    def test_file_backed_model_checks_cleanly(self, make_model):
        # the extended-precision clone carries the model's table
        batch = as_batch(POST_A, POST_B)
        rng = np.random.default_rng(4)
        table = {
            sentence_key(post.id, i): rng.standard_normal(4)
            for post, _, _ in batch
            for i in range(len(post.sentences))
        }
        model = make_model(dimension=4, seed=4, epsilon=1.0, embeddings_table=table)
        assert _extended_precision_clone(model).embeddings_table is table
        report = finite_diff_check(model, batch, TrainConfig())
        assert report.passed, report.block_errors

    def test_bias_disabled_model_checks_cleanly(self, make_model):
        model = checkable_model(make_model, seed=3)
        model.kg_bias_enabled = False
        report = finite_diff_check(model, as_batch(POST_A, POST_C), TrainConfig())
        assert report.passed, report.block_errors


class TestTrain:
    def _training_set(self, n: int = 16, seed: int = 11) -> Dataset:
        return generate_synthetic(default_synthetic_spec(n_posts=n, seed=seed))

    def test_zero_epochs_returns_unchanged_model_and_empty_trace(self, make_model):
        model = make_model(dimension=8, seed=1)
        result = train(model, self._training_set(), TrainConfig(epochs=0))
        assert result.losses == []
        assert result.alphas == []
        for before, after in zip(model.layers, result.model.layers):
            np.testing.assert_array_equal(before.w_query, after.w_query)
            np.testing.assert_array_equal(before.w_out, after.w_out)
            assert before.a_raw == after.a_raw

    def test_training_leaves_the_input_model_untouched(self, make_model):
        model = make_model(dimension=8, seed=1)
        snapshot = [layer.w_out.copy() for layer in model.layers]
        train(
            model,
            self._training_set(),
            TrainConfig(epochs=3, kg_bias_enabled=False),
        )
        for layer, saved in zip(model.layers, snapshot):
            np.testing.assert_array_equal(layer.w_out, saved)

    def test_collapse_names_epoch_post_and_layer(self, make_model):
        # the distance-0 fixture of TestLoss collapses on the first evaluation
        model = make_model(dimension=8, seed=0, value_scale=0.0)
        for layer in model.layers:
            layer.w_value[:] = np.eye(8)
        post = Post(
            id="z",
            sentences=["wish to be dead.", "a gun nearby."],
            gold=Outcome.IDEATION_1,
            sentence_presence=[(1, 0, 0), (1, 0, 0)],
        )
        with pytest.raises(NumericalError, match="collapse") as info:
            train(model, Dataset(posts=[post]), TrainConfig(epochs=3))
        message = str(info.value)
        assert "epoch 0" in message
        assert "post 'z'" in message
        assert "layer " in message
        error = info.value
        assert error.epoch == 0
        assert error.post_id == "z"
        assert error.layer in range(len(model.layers))
        assert f"layer {error.layer} " in message
        assert error.log_peak < -1e3  # the fixture's bias is ~-1e6
        assert f"({error.log_peak:.6g})" in message

    def test_same_seed_and_config_is_bitwise_deterministic(self, make_model):
        dataset = self._training_set()
        config = TrainConfig(epochs=5, kg_bias_enabled=False)
        result_a = train(make_model(dimension=8, seed=4), dataset, config)
        result_b = train(make_model(dimension=8, seed=4), dataset, config)
        assert result_a.losses == result_b.losses
        for la, lb in zip(result_a.model.layers, result_b.model.layers):
            assert la.w_query.tobytes() == lb.w_query.tobytes()
            assert la.w_out.tobytes() == lb.w_out.tobytes()
            assert la.a_raw == lb.a_raw

    def test_post_order_does_not_change_the_result(self, make_model):
        dataset = self._training_set()
        shuffled = Dataset(posts=list(reversed(dataset.posts)))
        config = TrainConfig(epochs=4, kg_bias_enabled=False)
        result_a = train(make_model(dimension=8, seed=4), dataset, config)
        result_b = train(make_model(dimension=8, seed=4), shuffled, config)
        assert result_a.losses == result_b.losses
        for la, lb in zip(result_a.model.layers, result_b.model.layers):
            assert la.w_out.tobytes() == lb.w_out.tobytes()

    def test_loss_trace_shape_and_descent(self, make_model):
        model = make_model(dimension=16, seed=0)
        config = TrainConfig(epochs=30, kg_bias_enabled=False)
        result = train(model, self._training_set(), config)
        assert len(result.losses) == 31
        assert len(result.alphas) == 31
        assert all(len(row) == 4 for row in result.alphas)
        assert result.final_loss < result.initial_loss
        assert result.model.kg_bias_enabled is False

    def test_trained_model_fits_the_training_set_better(self, make_model):
        dataset = self._training_set(n=16, seed=2)
        model = make_model(dimension=16, seed=0)
        config = TrainConfig(epochs=60, kg_bias_enabled=False)
        result = train(model, dataset, config)
        batch = [(p, p.sentence_presence, p.gold) for p in dataset.posts]
        trained_loss = loss(result.model, batch)
        untrained_loss = loss(result.model.__class__.initialize(
            model.tree, model.embedding_config, seed=0
        ), batch)
        assert trained_loss < untrained_loss

    def test_penalty_off_training_weighs_no_sentence_pair(self, make_model, monkeypatch):
        calls = {"hamming_distance": 0, "connection_vector": 0}
        for name in list(calls):
            original = getattr(model_module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(model_module, name, counted)
        dataset = self._training_set()
        train(make_model(dimension=8, seed=1), dataset, TrainConfig(epochs=0))
        assert min(calls.values()) > 0  # the penalty on weighs its pairs
        calls.update(dict.fromkeys(calls, 0))
        config = TrainConfig(epochs=2, kg_bias_enabled=False)
        train(make_model(dimension=8, seed=1), dataset, config)
        assert calls == {"hamming_distance": 0, "connection_vector": 0}

    def test_empty_training_set_rejected(self, make_model):
        with pytest.raises(ValueError):
            train(make_model(), Dataset(posts=[]), TrainConfig(epochs=1))

    def test_unlabeled_posts_rejected(self, make_model):
        ds = Dataset(posts=[Post(id="u", sentences=["x."], sentence_presence=[(0, 0, 0)])])
        with pytest.raises(DataFormatError):
            train(make_model(), ds, TrainConfig(epochs=1))


def three_sentence_posts(n_posts: int) -> list[Post]:
    """Posts of three sentences with random presence bits, every outcome
    gold in turn."""
    rng = np.random.default_rng(5)
    return [
        Post(
            id=f"t{i:03d}",
            sentences=[f"post {i} says thing {j}." for j in range(3)],
            gold=LAYER_ORDER[i % len(LAYER_ORDER)],
            sentence_presence=[tuple(int(b) for b in rng.integers(0, 2, 3)) for _ in range(3)],
        )
        for i in range(n_posts)
    ]


class TestArena:
    """`train` fits one arena after its first epoch and reuses it; the
    numbers are the ones fresh arrays give, and nothing outlives the call.

    150 posts of three sentences at d = 64 make one bucket whose
    token-sized arrays take 150 * 5 * 64 * 8 B = 375 KiB each, above the
    128 KiB from which an allocation is a fresh mapping.
    """

    def test_a_fitted_arena_changes_nothing_and_allocates_little(self, make_model):
        model = checkable_model(make_model, seed=2, dimension=64)
        compiled = compile_batch(model, as_batch(*three_sentence_posts(150)))
        arena = training._Arena(np.float64)
        loss_and_gradients(model, compiled, arena)
        arena.fit()
        results, rises = [], []
        for given in (None, arena):  # a fresh arena, then the fitted one
            gc.collect()
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                results.append(loss_and_gradients(model, compiled, given))
                rises.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert arena.high <= arena.buffer.size  # every array was a view
        (fresh_value, fresh), (fitted_value, fitted) = results
        assert fitted_value.hex() == fresh_value.hex()
        for (name, want), (_, got) in zip(fresh.blocks(), fitted.blocks()):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
        assert rises[1] < rises[0] / 4, rises

    def test_train_fits_one_arena_to_its_high_water(self, make_model, monkeypatch):
        made = []

        class Recorded(training._Arena):
            def __init__(self, dtype) -> None:
                super().__init__(dtype)
                made.append(self)

        monkeypatch.setattr(training, "_Arena", Recorded)
        model = checkable_model(make_model, seed=2, dimension=64)
        train(model, Dataset(posts=three_sentence_posts(150)), TrainConfig(epochs=2))
        (arena,) = made
        assert arena.buffer.size == arena.high > 0

    def test_train_keeps_nothing_after_it_returns(self, make_model):
        model = checkable_model(make_model, seed=2, dimension=64)
        dataset = Dataset(posts=three_sentence_posts(150))
        config = TrainConfig(epochs=2)
        train(model, dataset, config)  # warm-up
        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = train(model, dataset, config)
            assert len(result.losses) == 3
            del result
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024


class TestForwardAfterTraining:
    def test_predictions_improve_on_the_training_corpus(self, make_model):
        dataset = generate_synthetic(default_synthetic_spec(n_posts=24, seed=6))
        model = make_model(dimension=16, seed=0)
        result = train(
            model, dataset, TrainConfig(epochs=80, kg_bias_enabled=False)
        )
        hits = 0
        for post in dataset.posts:
            final, _ = forward(result.model, post)
            predicted = int(np.argmax(final))
            from ksat.knowledge import LAYER_ORDER

            if LAYER_ORDER[predicted] is post.gold:
                hits += 1
        assert hits / len(dataset.posts) >= 0.75
