"""Metrics, per-layer contribution summaries, pair distances, report writers."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ksat.analysis import (
    DistanceReport,
    LayerContribution,
    Metrics,
    _midranks,
    accuracy_score,
    auc_roc,
    binary_auc,
    compute_metrics,
    confusion_matrix,
    contribution_report,
    distance_report,
    final_layer_outputs,
    score_posts,
    within_class_kcls_distance,
    write_contributions_csv,
    write_distances_csv,
    write_metrics_json,
)
from ksat.corpus import Dataset, Post, default_synthetic_spec, generate_synthetic
from ksat.embeddings import EmbeddingConfig, sentence_key
from ksat.errors import DataFormatError, NumericalError
from ksat.knowledge import LAYER_ORDER, N_OUTCOMES, Outcome, default_tree
from ksat.model import KsatModel, clone_model, forward, load_model, predict, save_model


@pytest.fixture(scope="module")
def corpus() -> Dataset:
    return generate_synthetic(default_synthetic_spec(n_posts=12, seed=9))


@pytest.fixture()
def model(make_model):
    return make_model(dimension=8, seed=1, value_scale=0.25, epsilon=1.0)


class TestAccuracy:
    def test_exact_fractions(self):
        assert accuracy_score([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0
        assert accuracy_score([0, 1, 2, 3], [1, 2, 3, 0]) == 0.0
        assert accuracy_score([0, 1, 2, 3], [0, 1, 2, 0]) == 0.75

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy_score([0, 1], [0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])


class TestConfusionMatrix:
    def test_counts_with_gold_rows(self):
        out = confusion_matrix([0, 0, 1, 3], [0, 2, 1, 3])
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 0] = 1
        expected[0, 2] = 1
        expected[1, 1] = 1
        expected[3, 3] = 1
        np.testing.assert_array_equal(out, expected)
        assert out.sum() == 4

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([4], [0])
        with pytest.raises(ValueError):
            confusion_matrix([0], [-1])


class TestBinaryAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positives = np.array([True, True, False, False])
        assert binary_auc(scores, positives) == 1.0

    def test_all_tied_scores_give_half(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        positives = np.array([True, False, True, False])
        assert binary_auc(scores, positives) == 0.5

    def test_single_inversion_fixture(self):
        # positives 0.9 and 0.4 versus negatives 0.6 and 0.1: three of the
        # four positive/negative pairs are ordered correctly
        scores = np.array([0.9, 0.4, 0.6, 0.1])
        positives = np.array([True, True, False, False])
        assert binary_auc(scores, positives) == 0.75

    def test_tie_across_classes_counts_half(self):
        scores = np.array([0.7, 0.7])
        positives = np.array([True, False])
        assert binary_auc(scores, positives) == 0.5

    def test_needs_both_classes(self):
        with pytest.raises(ValueError):
            binary_auc(np.array([0.1, 0.2]), np.array([True, True]))
        with pytest.raises(ValueError):
            binary_auc(np.array([0.1, 0.2]), np.array([False, False]))

    @given(
        st.lists(st.integers(min_value=-500, max_value=500), min_size=4, max_size=12),
        st.data(),
    )
    def test_invariant_under_order_preserving_transforms(self, raw, data):
        # integer-valued scores keep the cube map exactly order-preserving
        # (general floats can underflow into fresh ties when cubed)
        n = len(raw)
        flags = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(
                lambda f: any(f) and not all(f)
            )
        )
        scores = np.array(raw, dtype=np.float64)
        base = binary_auc(scores, np.array(flags))
        cubed = binary_auc(scores**3, np.array(flags))
        assert cubed == pytest.approx(base, abs=1e-12)


class TestMidranks:
    def test_ties_share_their_mean_position_and_nans_rank_last_in_order(self):
        # 24 values: past the length up to which NumPy's default sort is a
        # stable insertion sort; -0.0 ties with 0.0, and NaN with nothing
        values = np.array([np.nan, 0.0, 2.0, -0.0, np.nan, 2.0, -1.0] * 3 + [np.nan, 5.0, -0.0])
        numbers = values[~np.isnan(values)]
        expected = np.empty(len(values))
        for i, v in enumerate(values):
            if np.isnan(v):
                expected[i] = numbers.size + np.isnan(values[: i + 1]).sum()
            else:
                expected[i] = 1 + (numbers < v).sum() + ((numbers == v).sum() - 1) / 2.0
        assert _midranks(values).tobytes() == expected.tobytes()


class TestMacroAuc:
    def test_macro_average_over_present_classes(self):
        # class 0: positive 0.9 vs negatives 0.2 and 0.5 -> one inversion, 0.5
        # class 2: positive 0.9 vs negatives 0.1 and 0.2 -> clean, 1.0
        # classes 1 and 3 have no gold examples and are skipped
        gold = [0, 0, 2]
        scores = np.array(
            [
                [0.9, 0.0, 0.1, 0.0],
                [0.2, 0.0, 0.2, 0.0],
                [0.5, 0.0, 0.9, 0.0],
            ]
        )
        # class 0 positives are rows 0 and 1: 0.9 beats 0.5, 0.2 loses -> 0.5
        assert auc_roc(gold, scores) == pytest.approx((0.5 + 1.0) / 2.0)

    def test_all_labels_identical_rejected(self):
        scores = np.full((3, N_OUTCOMES), 0.25)
        with pytest.raises(DataFormatError):
            auc_roc([1, 1, 1], scores)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            auc_roc([0, 1], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            auc_roc([0, 1, 2], np.zeros((2, N_OUTCOMES)))


class TestScorePosts:
    def test_rows_are_normalized_and_match_predict(self, model, corpus):
        gold, predicted, scores = score_posts(model, corpus)
        assert len(gold) == len(corpus.posts)
        assert scores.shape == (len(corpus.posts), N_OUTCOMES)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=1e-12)
        for post, g, p, row in zip(corpus.posts, gold, predicted, scores):
            assert LAYER_ORDER[g] is post.gold
            assert LAYER_ORDER[p] is predict(model, post)
            # each row is the exp of the post's log normalized product
            log_f = log_products(forward(model, post)[1])
            lse = log_f.max() + np.log(np.exp(log_f - log_f.max()).sum())
            np.testing.assert_array_equal(row, np.exp(log_f - lse))

    def test_empty_dataset_rejected(self, model):
        with pytest.raises(ValueError):
            score_posts(model, Dataset(posts=[]))

    def test_unlabeled_post_rejected(self, model):
        ds = Dataset(
            posts=[Post(id="u", sentences=["x."], sentence_presence=[(0, 0, 0)])]
        )
        with pytest.raises(DataFormatError):
            score_posts(model, ds)

    def test_compute_metrics_consistency(self, model, corpus):
        metrics = compute_metrics(model, corpus)
        assert isinstance(metrics, Metrics)
        assert 0.0 <= metrics.accuracy <= 1.0
        assert 0.0 <= metrics.auc <= 1.0
        assert metrics.n_posts == len(corpus.posts)
        assert metrics.confusion.sum() == metrics.n_posts
        assert np.trace(metrics.confusion) == round(
            metrics.accuracy * metrics.n_posts
        )

    def test_saved_file_backed_model_loads_to_identical_metrics(
        self, tree, make_model, corpus, tmp_path
    ):
        rng = np.random.default_rng(5)
        table = {
            sentence_key(p.id, i): rng.standard_normal(8)
            for p in corpus.posts
            for i in range(len(p.sentences))
        }
        model = make_model(dimension=8, seed=1, epsilon=1.0, embeddings_table=table)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path, tree, table)
        assert score_posts(loaded, corpus)[2].tobytes() == score_posts(model, corpus)[2].tobytes()
        metrics = compute_metrics(loaded, corpus).to_dict()
        assert metrics == compute_metrics(model, corpus).to_dict()


def log_products(passes) -> np.ndarray:
    """A post's log final products: its layers' log-probabilities added in
    stack order."""
    return sum(lp.log_probs for lp in passes)


@pytest.fixture(scope="module")
def underflowing() -> tuple[KsatModel, Dataset]:
    """The seed-0 40-post corpus with all-zero presence under a d = 16,
    `value_scale` 3 model: every sentence pair sits at Hamming distance 0,
    weighs 1/epsilon = 1e6, and drives most posts' four raw final products
    to exactly 0.0."""
    tree = default_tree()
    corpus = generate_synthetic(default_synthetic_spec(40, 0, tree), tree)
    posts = [
        dataclasses.replace(p, sentence_presence=[(0,) * tree.num_concepts] * len(p.sentences))
        for p in corpus.posts
    ]
    model = KsatModel.initialize(tree, EmbeddingConfig(dimension=16), seed=0, value_scale=3.0)
    return model, Dataset(posts=posts)


class TestLogSpaceRanking:
    def test_predict_ranks_posts_whose_raw_products_underflow(self, underflowing):
        model, dataset = underflowing
        zero = raw_disagrees = 0
        for post in dataset.posts:
            final, passes = forward(model, post)
            expected = int(np.argmax(log_products(passes)))
            assert predict(model, post) is LAYER_ORDER[expected]
            if not final.any():
                zero += 1
                raw_disagrees += int(np.argmax(final)) != expected
        # the probe reaches the case: raw products of 0.0 rank by position
        assert zero > 0 and raw_disagrees > 0

    def test_metrics_rank_posts_whose_raw_products_underflow(self, underflowing):
        model, dataset = underflowing
        gold, predicted, scores = score_posts(model, dataset)
        assert predicted == [LAYER_ORDER.index(predict(model, p)) for p in dataset.posts]
        assert np.isfinite(scores).all()
        # the largest log product reaches -2e11 here; the rows still sum to
        # 1 within the rounding of four exps and their sum
        for row in scores:
            assert abs(row.sum() - 1.0) <= 4.0 * np.finfo(np.float64).eps
        metrics = compute_metrics(model, dataset)
        assert metrics.n_posts == len(dataset.posts)
        assert metrics.accuracy == accuracy_score(gold, predicted)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_log_products_name_the_post(self, make_model):
        # a file-backed model whose table holds a NaN for one sentence of
        # the third post; the posts' lengths put it in a later bucket than
        # the others
        posts = [
            Post(id=f"p{i}", sentences=["x."] * n, gold=LAYER_ORDER[i % 4],
                 sentence_presence=[(0, 0, 0)] * n)
            for i, n in enumerate((1, 2, 3, 2))
        ]
        rng = np.random.default_rng(0)
        table = {
            sentence_key(p.id, i): rng.standard_normal(4)
            for p in posts
            for i in range(len(p.sentences))
        }
        table[sentence_key("p2", 1)][0] = np.nan
        model = make_model(dimension=4, seed=1, epsilon=1.0, embeddings_table=table)
        dataset = Dataset(posts=posts)
        for reader in (score_posts, compute_metrics):
            with pytest.raises(NumericalError, match="'p2'") as caught:
                reader(model, dataset)
            assert caught.value.post_id == "p2"
        with pytest.raises(NumericalError, match="'p2'"):
            predict(model, posts[2])
        assert predict(model, posts[1]) in LAYER_ORDER

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_log_products_name_the_layer(self, make_model):
        # evaluation refuses them as training does, naming the first layer
        # whose running log product is not finite
        posts = [
            Post(id=f"p{i}", sentences=["x."] * n, gold=LAYER_ORDER[i % 4],
                 sentence_presence=[(0, 0, 0)] * n)
            for i, n in enumerate((1, 2, 3, 2))
        ]
        model = make_model(dimension=4, seed=1)
        model.layers[2].w_out[0, 0] = np.nan
        with pytest.raises(NumericalError, match="'p0'.*not all finite from layer 2 on") as caught:
            score_posts(model, Dataset(posts=posts))
        assert (caught.value.post_id, caught.value.layer) == ("p0", 2)
        with pytest.raises(NumericalError, match="from layer 2 on") as caught:
            predict(model, posts[1])
        assert (caught.value.post_id, caught.value.layer) == ("p1", 2)


def per_post_reference(model, posts):
    """Contribution rows, all-pair distances and the within-class mean,
    computed post by post and pair by pair from `forward`."""
    passes = {post.id: forward(model, post)[1] for post in posts}
    n_layers = len(model.layers)
    know = np.zeros((n_layers, N_OUTCOMES))
    data = np.zeros((n_layers, N_OUTCOMES))
    kg = np.zeros(n_layers)
    for post in posts:
        for li, lp in enumerate(passes[post.id]):
            w_out = model.layers[li].w_out
            know[li] += np.abs(lp.alpha * (w_out.T @ lp.z_kcls))
            data[li] += np.abs((1.0 - lp.alpha) * (w_out.T @ lp.z_cls))
            kg[li] += lp.kg_bias
    n = len(posts)
    contributions = [
        LayerContribution(li, model.layers[li].alpha, float(know[li].mean()) / n,
                          float(data[li].mean()) / n, float(kg[li]) / n)
        for li in range(n_layers)
    ]
    top = {pid: p[-1] for pid, p in passes.items()}
    distances = [
        (a.id, b.id,
         float(np.linalg.norm(top[a.id].z_cls - top[b.id].z_cls)),
         float(np.linalg.norm(top[a.id].z_kcls - top[b.id].z_kcls)))
        for i, a in enumerate(posts)
        for b in posts[i + 1:]
    ]
    by_outcome: dict = {}
    for post in posts:
        by_outcome.setdefault(post.gold, []).append(top[post.id].z_kcls)
    within = [
        float(np.linalg.norm(reps[i] - reps[j]))
        for reps in by_outcome.values()
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
    ]
    return contributions, distances, float(np.mean(within))


class TestBucketedReaders:
    """The readers run posts per length bucket and all of a post's later
    partners at once; each number is the one the per-post, per-pair
    computation gives."""

    def test_readers_match_the_per_post_reference_bit_for_bit(self, make_model):
        corpus = generate_synthetic(
            dataclasses.replace(default_synthetic_spec(n_posts=30, seed=4), sentences_per_post=(1, 7))
        )
        order = np.random.default_rng(2).permutation(len(corpus.posts))
        dataset = Dataset(posts=[corpus.posts[i] for i in order])
        lengths = [len(p.sentences) for p in dataset.posts]
        assert lengths != sorted(lengths)  # bucket order is not dataset order
        model = make_model(dimension=16, seed=5, value_scale=0.25, epsilon=1.0)
        contributions, distances, within = per_post_reference(model, dataset.posts)
        assert contribution_report(model, dataset) == contributions
        report = distance_report(model, dataset)
        assert [row[:4] for row in report.rows()] == distances
        assert report.threshold == float(np.percentile([d[3] for d in distances], 25.0))
        assert within_class_kcls_distance(model, dataset) == within
        assert all(row.kg_bias_mean < 0.0 for row in contributions)


class TestContributionReport:
    def test_neutral_gate_reports_half_alpha(self, model, corpus):
        rows = contribution_report(model, corpus)
        assert [r.layer for r in rows] == [0, 1, 2, 3]
        for row in rows:
            assert row.alpha == 0.5

    def test_zero_readout_zeroes_both_logit_means(self, make_model, corpus):
        model = make_model(dimension=8, seed=1, value_scale=0.25, epsilon=1.0)
        for layer in model.layers:
            layer.w_out[:] = 0.0
        rows = contribution_report(model, corpus)
        for row in rows:
            assert row.knowledge_logit_mean == 0.0
            assert row.data_logit_mean == 0.0

    def test_logit_means_scale_linearly_with_the_readout(self, model, corpus):
        doubled = clone_model(model)
        for layer in doubled.layers:
            layer.w_out *= 2.0
        base = contribution_report(model, corpus)
        scaled = contribution_report(doubled, corpus)
        for a, b in zip(base, scaled):
            assert b.knowledge_logit_mean == 2.0 * a.knowledge_logit_mean
            assert b.data_logit_mean == 2.0 * a.data_logit_mean
            assert b.kg_bias_mean == a.kg_bias_mean

    def test_zero_value_projection_zeroes_the_bias_mean(self, make_model, corpus):
        model = make_model(dimension=8, seed=1, value_scale=0.0)
        rows = contribution_report(model, corpus)
        for row in rows:
            assert row.kg_bias_mean == 0.0

    def test_bias_mean_is_never_positive(self, model, corpus):
        for row in contribution_report(model, corpus):
            assert row.kg_bias_mean <= 0.0

    def test_empty_dataset_rejected(self, model):
        with pytest.raises(ValueError):
            contribution_report(model, Dataset(posts=[]))


class TestDistanceReport:
    def test_identical_posts_sit_at_zero_distance(self, model):
        post = Post(
            id="p",
            sentences=["wish to be dead."],
            sentence_presence=[(1, 0, 0)],
        )
        twin = Post(
            id="q",
            sentences=["wish to be dead."],
            sentence_presence=[(1, 0, 0)],
        )
        report = distance_report(model, Dataset([post, twin]), epsilon_report=0.5)
        assert report.threshold == 0.5
        assert report.post_ids == ["p", "q"]
        assert list(report.rows()) == [("p", "q", 0.0, 0.0, True)]
        assert report.close.tolist() == [True]
        assert report.close_fraction == 1.0

    def test_distances_are_symmetric_in_pair_order(self, model, corpus):
        a, b = corpus.posts[0], corpus.posts[1]
        fwd = distance_report(model, Dataset([a, b]), epsilon_report=1.0)
        rev = distance_report(model, Dataset([b, a]), epsilon_report=1.0)
        assert fwd.d_cls.tobytes() == rev.d_cls.tobytes()
        assert fwd.d_kcls.tobytes() == rev.d_kcls.tobytes()

    def test_default_threshold_is_the_lower_quartile(self, model, corpus):
        report = distance_report(model, corpus)
        n = len(corpus.posts)
        assert report.d_cls.shape == report.d_kcls.shape == (n * (n - 1) // 2,)
        assert report.threshold == float(np.percentile(report.d_kcls, 25.0))
        rows = list(report.rows())
        assert [row[4] for row in rows] == (report.d_kcls < report.threshold).tolist()
        assert report.close_fraction == sum(row[4] for row in rows) / len(rows)

    def test_threshold_comparison_is_strict(self, model):
        post = Post(id="p", sentences=["a gun nearby."], sentence_presence=[(0, 0, 1)])
        twin = Post(id="q", sentences=["a gun nearby."], sentence_presence=[(0, 0, 1)])
        report = distance_report(model, Dataset([post, twin]), epsilon_report=0.0)
        assert report.d_kcls.tolist() == [0.0]
        assert report.close.tolist() == [False]
        assert report.close_fraction == 0.0

    def test_matches_direct_output_recomputation(self, model, corpus):
        a, b = corpus.posts[2], corpus.posts[5]
        cls_a, kcls_a = final_layer_outputs(model, a)
        cls_b, kcls_b = final_layer_outputs(model, b)
        report = distance_report(model, Dataset([a, b]), epsilon_report=1.0)
        assert report.d_cls.tolist() == [float(np.linalg.norm(cls_a - cls_b))]
        assert report.d_kcls.tolist() == [float(np.linalg.norm(kcls_a - kcls_b))]

    def test_empty_pair_list_rejected(self, model):
        with pytest.raises(ValueError):
            distance_report(model, Dataset([]))

    def test_all_pairs_needs_two_posts(self, model):
        only = Post(id="only", sentences=["x."], sentence_presence=[(0, 0, 0)])
        with pytest.raises(ValueError):
            distance_report(model, Dataset([only]))

    def test_built_report_holds_its_two_distance_arrays(self, make_model):
        # the two float64 arrays hold 16 bytes a pair; the ids and object
        # headers fit the slack
        corpus = generate_synthetic(default_synthetic_spec(n_posts=300, seed=3))
        model = make_model(dimension=8, seed=1, epsilon=1.0)
        distance_report(model, corpus)  # warm-up: fills the embedding cache
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = distance_report(model, corpus)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        pairs = report.d_kcls.size
        assert pairs == 300 * 299 // 2
        assert held <= 24 * pairs + 64 * 1024


class TestWithinClassDistance:
    def test_single_same_class_pair(self, model):
        posts = [
            Post(id="a", sentences=["wish to be dead."], gold=Outcome.IDEATION_1,
                 sentence_presence=[(1, 0, 0)]),
            Post(id="b", sentences=["ending my life."], gold=Outcome.IDEATION_1,
                 sentence_presence=[(0, 1, 0)]),
            Post(id="c", sentences=["rain fell late."], gold=Outcome.INDICATION_OR_NONE,
                 sentence_presence=[(0, 0, 0)]),
        ]
        ds = Dataset(posts=posts)
        value = within_class_kcls_distance(model, ds)
        _, ka = final_layer_outputs(model, posts[0])
        _, kb = final_layer_outputs(model, posts[1])
        assert value == pytest.approx(float(np.linalg.norm(ka - kb)), rel=1e-12)

    def test_no_same_class_pair_rejected(self, model):
        posts = [
            Post(id="a", sentences=["x."], gold=Outcome.IDEATION_1,
                 sentence_presence=[(0, 0, 0)]),
            Post(id="b", sentences=["y."], gold=Outcome.IDEATION_2,
                 sentence_presence=[(0, 0, 0)]),
        ]
        with pytest.raises(ValueError):
            within_class_kcls_distance(model, Dataset(posts=posts))

    def test_unlabeled_post_rejected(self, model):
        ds = Dataset(posts=[Post(id="u", sentences=["x."], sentence_presence=[(0, 0, 0)])])
        with pytest.raises(DataFormatError):
            within_class_kcls_distance(model, ds)


class TestReportWriters:
    def test_contributions_csv_header_and_round_trip(self, tmp_path):
        rows = [
            LayerContribution(
                layer=0,
                alpha=0.5,
                knowledge_logit_mean=0.125,
                data_logit_mean=1.0 / 3.0,
                kg_bias_mean=-2.5e-3,
            )
        ]
        path = tmp_path / "contributions.csv"
        write_contributions_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "layer,alpha,knowledge_logit_mean,data_logit_mean,kg_bias_mean"
        with open(path, newline="") as fh:
            (record,) = list(csv.DictReader(fh))
        assert int(record["layer"]) == 0
        assert float(record["alpha"]) == 0.5
        assert float(record["knowledge_logit_mean"]) == 0.125
        assert float(record["data_logit_mean"]) == 1.0 / 3.0
        assert float(record["kg_bias_mean"]) == -2.5e-3

    def test_distances_csv_header_and_flags(self, tmp_path):
        report = DistanceReport(
            post_ids=["a", "b", "c"],
            d_cls=np.array([0.25, 1.5, 0.5]),
            d_kcls=np.array([0.0625, 2.75, 0.125]),
            threshold=0.1,
        )
        path = tmp_path / "distances.csv"
        write_distances_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "post_a,post_b,d_zcls,d_zkcls,close_flag"
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [(r["post_a"], r["post_b"]) for r in records] == [("a", "b"), ("a", "c"), ("b", "c")]
        assert [r["close_flag"] for r in records] == ["1", "0", "0"]
        assert float(records[0]["d_zkcls"]) == 0.0625
        assert float(records[1]["d_zcls"]) == 1.5

    def test_metrics_json_round_trip(self, tmp_path, model, corpus):
        metrics = compute_metrics(model, corpus)
        path = tmp_path / "metrics.json"
        write_metrics_json(metrics, path)
        payload = json.loads(path.read_text())
        assert payload["accuracy"] == metrics.accuracy
        assert payload["auc"] == metrics.auc
        assert payload["n_posts"] == metrics.n_posts
        assert payload["outcome_order"] == [o.value for o in LAYER_ORDER]
        assert payload["confusion"] == metrics.confusion.astype(int).tolist()
        assert all(
            isinstance(v, int) for row in payload["confusion"] for v in row
        )
