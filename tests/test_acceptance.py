"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Each test prints ``[acceptance] C<n>: PASS`` or ``FAIL`` directly to the
terminal (bypassing capture) and then asserts, so a full run always shows
nine verdict lines.  C6 and C7 exercise the knowledge-penalty training
protocol exactly as stated; that protocol currently fails by numerical
collapse, and the analysis lives in the README section "A note on the
penalty term's numerical range".
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

from ksat.analysis import accuracy_score, auc_roc, binary_auc, compute_metrics
from ksat.annotation import AnnotationParams, annotate_post, grid_search
from ksat.corpus import (
    Dataset,
    default_synthetic_spec,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    split,
)
from ksat.embeddings import EmbeddingConfig
from ksat.errors import DataFormatError, NumericalError
from ksat.knowledge import (
    Concept,
    KnowledgeTree,
    N_OUTCOMES,
    Outcome,
    default_tree,
)
from ksat.model import (
    KsatModel,
    aggregate_probs,
    forward,
    kg_bias,
    layer_probabilities,
    load_model,
    save_model,
    sigmoid,
)
from ksat.training import TrainConfig, finite_diff_check, train


def _verdict(capsys, number: int, ok: bool) -> None:
    with capsys.disabled():
        print(f"[acceptance] C{number}: {'PASS' if ok else 'FAIL'}", flush=True)


def _fresh_model(tree, dimension, seed, *, epsilon=1.0, value_scale=0.25):
    return KsatModel.initialize(
        tree,
        EmbeddingConfig(dimension=dimension, seed=seed),
        seed=seed,
        epsilon=epsilon,
        value_scale=value_scale,
    )


def _batch(posts):
    return [(p, p.sentence_presence, p.gold) for p in posts]


def test_c1_analytic_gradients_match_finite_differences(tree, capsys):
    ok = False
    try:
        start = time.monotonic()
        worst = 0.0
        for seed in range(10):
            dataset = generate_synthetic(default_synthetic_spec(3, seed, tree), tree)
            model = _fresh_model(tree, 16, seed)
            report = finite_diff_check(
                model,
                _batch(dataset.posts),
                TrainConfig(fd_step=1e-5, grad_tolerance=1e-4),
            )
            assert report.passed, (seed, report.block_errors)
            worst = max(worst, report.max_error)
        elapsed = time.monotonic() - start
        assert worst < 1e-4
        assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(capsys, 1, ok)


def test_c2_pair_penalty_unit_fidelity(capsys):
    ok = False
    try:
        # worked example: unit contributions on different axes, flag
        # vectors two bits apart, epsilon 0.01
        value = kg_bias(
            np.array([[1.0, 0.0], [0.0, 1.0]]), [(0, 0), (1, 1)], 0.01
        )
        assert value == pytest.approx(-2.0 / 2.01, rel=1e-9)
        # worked example: identical flag vectors, contribution gap of
        # squared norm 1, epsilon 1e-6 -> penalty on the order of -1e6
        value = kg_bias(
            np.array([[1.0, 0.0], [0.0, 0.0]]), [(1, 0), (1, 0)], 1e-6
        )
        assert value == pytest.approx(-1e6, rel=1e-9)
        # worked example: equal contributions are free for any distances
        value = kg_bias(
            np.array([[0.7, -0.3], [0.7, -0.3]]), [(0,), (1,)], 0.5
        )
        assert value == 0.0

        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 7))
            bits = int(rng.integers(1, 5))
            contribs = rng.normal(size=(n, d))
            cvs = [tuple(int(b) for b in rng.integers(0, 2, size=bits)) for _ in range(n)]
            eps = float(10.0 ** rng.uniform(-8, 0))
            assert kg_bias(contribs, cvs, eps) <= 0.0
        equal = rng.normal(size=4)
        cvs = [tuple(int(b) for b in rng.integers(0, 2, size=3)) for _ in range(3)]
        assert kg_bias(np.tile(equal, (3, 1)), cvs, 1e-4) == 0.0
        ok = True
    finally:
        _verdict(capsys, 2, ok)


def test_c3_gate_endpoint_fidelity(tree, capsys):
    ok = False
    try:
        model = _fresh_model(tree, 8, 0)
        layer = model.layers[0]
        rng = np.random.default_rng(7)
        z_cls = rng.normal(size=8)
        z_kcls = rng.normal(size=8)

        layer.a_raw = 50.0
        probs = layer_probabilities(z_cls, z_kcls, -0.25, layer)
        pure_knowledge = sigmoid(layer.w_out.T @ z_kcls - 0.25)
        np.testing.assert_allclose(probs, pure_knowledge, rtol=1e-9, atol=1e-9)

        layer.a_raw = -50.0
        probs = layer_probabilities(z_cls, z_kcls, -0.25, layer)
        pure_data = sigmoid(layer.w_out.T @ z_cls - 0.25)
        np.testing.assert_allclose(probs, pure_data, rtol=1e-9, atol=1e-9)

        layer.a_raw = 0.0
        assert layer.alpha == 0.5
        ok = True
    finally:
        _verdict(capsys, 3, ok)


def test_c4_product_never_exceeds_any_layer(tree, capsys):
    ok = False
    try:
        count = 0
        for seed in range(20):
            dataset = generate_synthetic(
                default_synthetic_spec(50, 1000 + seed, tree), tree
            )
            model = _fresh_model(tree, 8, seed)
            for post in dataset.posts:
                final, acts = forward(model, post)
                per_layer = np.vstack([a.layer_probs for a in acts])
                assert np.all(final <= per_layer.min(axis=0) + 1e-15)
                count += 1
        assert count == 1000
        two_layers = np.array(
            [[0.8] * N_OUTCOMES, [0.5] * N_OUTCOMES]
        )
        assert np.all(aggregate_probs(two_layers) == 0.4)
        ok = True
    finally:
        _verdict(capsys, 4, ok)


def _two_concept_tree() -> KnowledgeTree:
    base = default_tree()
    return KnowledgeTree(
        concepts=base.concepts[:2],
        outcome_map={
            (0, 0): Outcome.INDICATION_OR_NONE,
            (1, 0): Outcome.IDEATION_1,
            (0, 1): Outcome.IDEATION_2,
            (1, 1): Outcome.BEHAVIOR_OR_ATTEMPT,
        },
        layer_contexts={
            Outcome.INDICATION_OR_NONE: (0,),
            Outcome.IDEATION_1: (0, 1),
            Outcome.IDEATION_2: (0, 1),
            Outcome.BEHAVIOR_OR_ATTEMPT: (0, 1),
        },
    )


def _brute_force_lattice(dataset, tree, config, step):
    """Self-contained sweep: own lattice, own frequencies, own log terms."""
    values = [round(-1.0 + i * step, 12) for i in range(int(round(2.0 / step)) + 1)]
    counts = Counter(p.gold for p in dataset.posts)
    n = len(dataset.posts)
    freq = {o: counts.get(o, 0) / n for o in Outcome}
    best = None
    best_score = -math.inf
    for thetas in itertools.product(values, repeat=tree.num_concepts):
        for frag_size in (1, 2, 3):
            params = AnnotationParams(thetas=thetas, frag_size=frag_size)
            total = 0.0
            for post in dataset.posts:
                predicted = annotate_post(post, tree, params, config).predicted
                p = freq[predicted]
                if predicted == post.gold:
                    total += math.log(p + 1e-9)
                else:
                    total += math.log(1.0 - p + 1e-9)
            if total > best_score:
                best_score = total
                best = (thetas, frag_size)
    return best


def test_c5_threshold_search_matches_brute_force(capsys):
    ok = False
    try:
        start = time.monotonic()
        tree = _two_concept_tree()
        dataset = generate_synthetic(default_synthetic_spec(20, 13, tree), tree)
        config = EmbeddingConfig(dimension=64, seed=0)
        result = grid_search(dataset, tree, config, theta_step=0.5)
        oracle_thetas, oracle_frag = _brute_force_lattice(dataset, tree, config, 0.5)
        assert result.params.thetas == oracle_thetas
        assert result.params.frag_size == oracle_frag
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"threshold search took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(capsys, 5, ok)


@pytest.fixture(scope="module")
def learnability_run():
    """One attempt at the full learnability protocol, shared by C6 and C7."""
    tree = default_tree()
    outcome = {
        "error": None,
        "elapsed": None,
        "deterministic": None,
        "accuracy": None,
        "auc": None,
        "model": None,
        "train_ds": None,
        "test_ds": None,
        "tree": tree,
    }
    start = time.monotonic()
    dataset = generate_synthetic(default_synthetic_spec(300, 7, tree), tree)
    train_ds, test_ds = split(dataset, 0.8, 7)
    outcome["train_ds"], outcome["test_ds"] = train_ds, test_ds
    config = TrainConfig(epochs=200, learning_rate=0.05, seed=7, kg_bias_enabled=True)

    def attempt():
        model = KsatModel.initialize(
            tree, EmbeddingConfig(dimension=64, seed=7), seed=7
        )
        return train(model, train_ds, config)

    try:
        first = attempt()
        second = attempt()
        outcome["deterministic"] = first.losses == second.losses and all(
            a.w_out.tobytes() == b.w_out.tobytes()
            and a.w_query.tobytes() == b.w_query.tobytes()
            and a.a_raw == b.a_raw
            for a, b in zip(first.model.layers, second.model.layers)
        )
        metrics = compute_metrics(first.model, test_ds)
        outcome["accuracy"] = metrics.accuracy
        outcome["auc"] = metrics.auc
        outcome["model"] = first.model
    except NumericalError as exc:
        outcome["error"] = exc
    outcome["elapsed"] = time.monotonic() - start
    return outcome


def test_c6_synthetic_learnability(learnability_run, capsys):
    ok = False
    try:
        assert learnability_run["elapsed"] < 300.0
        if learnability_run["error"] is not None:
            pytest.fail(
                "knowledge-penalty training collapses before finishing the "
                f"stated protocol ({learnability_run['error']}); blocking "
                "analysis in the README section \"A note on the penalty "
                "term's numerical range\""
            )
        assert learnability_run["deterministic"]
        assert learnability_run["accuracy"] >= 0.90
        assert learnability_run["auc"] >= 0.90
        ok = True
    finally:
        _verdict(capsys, 6, ok)


def test_c7_penalty_tightens_within_class_distances(learnability_run, capsys):
    ok = False
    try:
        if learnability_run["error"] is not None:
            pytest.fail(
                "blocked: the penalty-enabled reference model cannot be "
                "trained (see the C6 failure); blocking analysis in the "
                "README section \"A note on the penalty term's numerical "
                "range\""
            )
        from ksat.analysis import within_class_kcls_distance

        tree = learnability_run["tree"]
        ablated = train(
            KsatModel.initialize(
                tree, EmbeddingConfig(dimension=64, seed=7), seed=7
            ),
            learnability_run["train_ds"],
            TrainConfig(epochs=200, learning_rate=0.05, seed=7, kg_bias_enabled=False),
        )
        with_penalty = within_class_kcls_distance(
            learnability_run["model"], learnability_run["test_ds"]
        )
        without_penalty = within_class_kcls_distance(
            ablated.model, learnability_run["test_ds"]
        )
        assert with_penalty / without_penalty < 1.0
        ok = True
    finally:
        _verdict(capsys, 7, ok)


def test_c8_ranking_and_accuracy_metric_units(capsys):
    ok = False
    try:
        tied = np.full(6, 0.5)
        flags = np.array([True, False, True, False, True, False])
        assert binary_auc(tied, flags) == 0.5

        separated = np.array([0.9, 0.8, 0.7, 0.3, 0.2, 0.1])
        flags = np.array([True, True, True, False, False, False])
        assert binary_auc(separated, flags) == 1.0

        inversion = np.array([0.9, 0.4, 0.6, 0.1])
        flags = np.array([True, True, False, False])
        assert binary_auc(inversion, flags) == 0.75

        assert accuracy_score([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0
        assert accuracy_score([0, 1, 2, 3], [1, 0, 3, 2]) == 0.0
        assert accuracy_score([0, 1, 2, 3], [0, 1, 2, 0]) == 0.75

        # the macro wrapper agrees on a two-class layout of the same fixture
        gold = [0, 0, 1, 1]
        scores = np.zeros((4, N_OUTCOMES))
        scores[:, 0] = [0.9, 0.4, 0.6, 0.1]
        scores[:, 1] = 1.0 - scores[:, 0]
        assert auc_roc(gold, scores) == 0.75

        with pytest.raises(DataFormatError):
            auc_roc([2, 2, 2], np.full((3, N_OUTCOMES), 0.25))
        ok = True
    finally:
        _verdict(capsys, 8, ok)


def test_c9_round_trips(tree, tmp_path, capsys):
    ok = False
    try:
        dataset = generate_synthetic(default_synthetic_spec(10, 21, tree), tree)
        model = _fresh_model(tree, 16, 3)
        for layer in model.layers:
            layer.a_raw = -0.3

        before = [forward(model, post) for post in dataset.posts]
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path, tree)
        for post, (final, acts) in zip(dataset.posts, before):
            final2, acts2 = forward(restored, post)
            assert final.tobytes() == final2.tobytes()
            for a, b in zip(acts, acts2):
                assert a.layer_probs.tobytes() == b.layer_probs.tobytes()
                assert a.z_kcls.tobytes() == b.z_kcls.tobytes()

        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(dataset, corpus_path)
        loaded = load_jsonl(corpus_path)
        assert len(loaded.posts) == len(dataset.posts)
        for a, b in zip(dataset.posts, loaded.posts):
            assert a == b
        ok = True
    finally:
        _verdict(capsys, 9, ok)
