"""Layer forward pass, graph-context bias, probability algebra, persistence."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksat.corpus import Post
from ksat.embeddings import EmbeddingConfig
from ksat.errors import DataFormatError, NumericalError
from ksat import analysis as analysis_module
from ksat import model as model_module
from ksat.knowledge import (
    LAYER_ORDER,
    N_OUTCOMES,
    Outcome,
    connection_vector,
    default_tree,
    hamming_distance,
)
from ksat.model import (
    ARRAY_BLOCKS,
    KsatLayerParams,
    KsatModel,
    LayerPass,
    aggregate_probs,
    clone_model,
    compile_post,
    forward,
    kg_bias,
    layer_forward,
    layer_probabilities,
    load_model,
    model_to_dict,
    normalize_probs,
    predict,
    run_layers,
    save_model,
    sigmoid,
    softmax_rows,
)
from ksat.training import _extended_precision_clone, compile_batch

# a saved d = 4 model, the path of each of its nodes, and the values the
# one-node fuzz puts in place of one: wrong types, non-finite and huge
# numbers, and ragged rows
MODEL_FILE = model_to_dict(
    KsatModel.initialize(default_tree(), EmbeddingConfig(dimension=4), seed=1, value_scale=0.25)
)


def _node_paths(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield (*path, key)
            yield from _node_paths(child, (*path, key))


MODEL_FILE_NODES = list(_node_paths(MODEL_FILE))
FUZZ_VALUES = [
    None, True, False, 0, -3, 1.5, math.nan, math.inf, -math.inf, "", "0.5",
    [], [1.0], {}, {"a": 1}, 10**30, [[1.0, 2.0], [3.0]],
]

TWO_SENTENCE_POST = Post(
    id="p1",
    sentences=["wish to be dead.", "a gun nearby."],
    gold=Outcome.IDEATION_1,
    sentence_presence=[(1, 0, 0), (0, 0, 1)],
)


def zero_layer(d: int, outcome: Outcome = Outcome.INDICATION_OR_NONE) -> KsatLayerParams:
    return KsatLayerParams(
        w_query=np.zeros((d, d)),
        w_key=np.zeros((d, d)),
        w_value=np.zeros((d, d)),
        kcls_init=np.zeros(d),
        w_out=np.zeros((d, N_OUTCOMES)),
        a_raw=0.0,
        context=(0,),
        outcome=outcome,
    )


class TestSigmoid:
    def test_zero_maps_to_exactly_half(self):
        assert sigmoid(0.0) == 0.5

    def test_extremes_stay_finite(self):
        assert sigmoid(750.0) == 1.0
        assert sigmoid(-750.0) == 0.0

    def test_symmetry(self):
        for z in (0.1, 1.0, 5.0, 30.0):
            assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-15)

    def test_preserves_extended_precision_dtype(self):
        value = sigmoid(np.longdouble(0.25))
        assert value.dtype == np.longdouble
        arr = sigmoid(np.array([0.1, -0.2], dtype=np.longdouble))
        assert arr.dtype == np.longdouble


    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_scalar_and_array_paths_agree(self, dtype):
        z = np.array([-750.0, -3.5, -0.0, 0.0, 0.25, 2.0, 750.0], dtype=dtype)
        arr = sigmoid(z)
        for zi, ai in zip(z, arr):
            assert sigmoid(zi) == ai
            assert type(sigmoid(zi)) is dtype

    @given(
        st.one_of(
            st.sampled_from([0.0, -0.0, 750.0, -750.0]),
            st.floats(-800.0, 800.0),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.sampled_from(["float", "int", "float64", "longdouble", "0-d float64", "0-d longdouble"]),
    )
    def test_scalar_path_matches_a_one_element_array(self, z, kind):
        dtype = np.longdouble if "longdouble" in kind else np.float64
        if kind == "int":
            z = int(max(min(z, 1e6), -1e6))
        scalar = {
            "float": float,
            "int": int,
            "float64": np.float64,
            "longdouble": np.longdouble,
            "0-d float64": lambda v: np.array(v, dtype=np.float64),
            "0-d longdouble": lambda v: np.array(v, dtype=np.longdouble),
        }[kind](z)
        got = sigmoid(scalar)
        want = sigmoid(np.array([z], dtype=dtype))[0]
        assert type(got) is type(want) is dtype
        assert got == want and np.signbit(got) == np.signbit(want)


class TestSoftmaxRows:
    def test_rows_sum_to_one(self, rng):
        scores = rng.normal(size=(5, 7))
        rows = softmax_rows(scores)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_scores_give_uniform_rows(self):
        rows = softmax_rows(np.zeros((3, 4)))
        np.testing.assert_array_equal(rows, np.full((3, 4), 0.25))

    def test_shift_invariance(self, rng):
        scores = rng.normal(size=(2, 6))
        np.testing.assert_allclose(
            softmax_rows(scores), softmax_rows(scores + 123.0), atol=1e-12
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_one_array_equals_the_two_step_form_and_keeps_its_input(self, rng, dtype):
        scores = (4.0 * rng.normal(size=(302, 302))).astype(dtype)
        given = scores.copy()
        rows = softmax_rows(scores)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        # exact equality: a long double's padding bytes are not its value
        assert rows.dtype == dtype and np.array_equal(rows, want)
        assert np.array_equal(scores, given)


class TestKgBias:
    def test_equal_contributions_give_exactly_zero(self):
        contribs = np.tile(np.array([0.3, -1.2, 0.5]), (4, 1))
        cvs = [(1, 0), (0, 1), (1, 1), (0, 0)]
        assert kg_bias(contribs, cvs, epsilon=0.7) == 0.0

    def test_two_sentence_example_with_hamming_two(self):
        contribs = np.array([[1.0, 0.0], [0.0, 1.0]])
        value = kg_bias(contribs, [(1, 0), (0, 1)], epsilon=0.01)
        expected = -2.0 / 2.01
        assert abs(value - expected) <= 1e-9 * abs(expected)

    def test_identical_context_divergence_hits_epsilon_scale(self):
        contribs = np.array([[1.0, 0.0], [0.0, 0.0]])
        value = kg_bias(contribs, [(1,), (1,)], epsilon=1e-6)
        expected = -1.0 / 1e-6
        assert abs(value - expected) <= 1e-9 * abs(expected)

    def test_single_sentence_gives_zero(self):
        assert kg_bias(np.array([[2.0, 3.0]]), [(1, 0)], epsilon=1e-6) == 0.0

    def test_never_positive_on_random_instances(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            contribs = rng.normal(size=(n, 3))
            cvs = [tuple(int(b) for b in rng.integers(0, 2, size=k)) for _ in range(n)]
            assert kg_bias(contribs, cvs, epsilon=10 ** rng.uniform(-6, 0)) <= 0.0

    def test_permutation_invariance_of_sentence_order(self, rng):
        n = 5
        contribs = rng.normal(size=(n, 4))
        cvs = [tuple(int(b) for b in rng.integers(0, 2, size=2)) for _ in range(n)]
        base = kg_bias(contribs, cvs, epsilon=0.05)
        for _ in range(10):
            perm = rng.permutation(n)
            permuted = kg_bias(contribs[perm], [cvs[i] for i in perm], epsilon=0.05)
            assert abs(permuted - base) < 1e-9

    def test_contribution_and_vector_counts_must_match(self):
        with pytest.raises(ValueError):
            kg_bias(np.zeros((2, 3)), [(1,)], epsilon=0.1)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            kg_bias(np.zeros((2, 3)), [(1,), (0,)], epsilon=0.0)


class TestLayerProbabilities:
    def test_zero_readout_and_zero_bias_give_all_half(self):
        layer = zero_layer(4)
        probs = layer_probabilities(np.ones(4), np.ones(4), 0.0, layer)
        np.testing.assert_array_equal(probs, np.full(N_OUTCOMES, 0.5))

    def test_zero_readout_with_bias_gives_sigmoid_of_bias(self):
        layer = zero_layer(4)
        for b in (-2.0, -0.5, 0.25):
            probs = layer_probabilities(np.ones(4), np.zeros(4), b, layer)
            np.testing.assert_allclose(probs, sigmoid(b), atol=1e-15)

    def test_large_positive_gate_matches_pure_knowledge_readout(self, rng):
        d = 6
        layer = zero_layer(d)
        layer.w_out = rng.normal(size=(d, N_OUTCOMES))
        layer.a_raw = 50.0
        z_cls = rng.normal(size=d)
        z_kcls = rng.normal(size=d)
        got = layer_probabilities(z_cls, z_kcls, -0.3, layer)
        pure = sigmoid(layer.w_out.T @ z_kcls - 0.3)
        np.testing.assert_allclose(got, pure, atol=1e-9)

    def test_large_negative_gate_matches_pure_data_readout(self, rng):
        d = 6
        layer = zero_layer(d)
        layer.w_out = rng.normal(size=(d, N_OUTCOMES))
        layer.a_raw = -50.0
        z_cls = rng.normal(size=d)
        z_kcls = rng.normal(size=d)
        got = layer_probabilities(z_cls, z_kcls, 0.0, layer)
        pure = sigmoid(layer.w_out.T @ z_cls)
        np.testing.assert_allclose(got, pure, atol=1e-9)

    def test_neutral_gate_is_exactly_half_alpha(self, rng):
        d = 5
        layer = zero_layer(d)
        layer.w_out = rng.normal(size=(d, N_OUTCOMES))
        assert layer.alpha == 0.5
        z_cls = rng.normal(size=d)
        z_kcls = rng.normal(size=d)
        got = layer_probabilities(z_cls, z_kcls, 0.1, layer)
        midpoint = sigmoid(layer.w_out.T @ ((z_cls + z_kcls) / 2.0) + 0.1)
        np.testing.assert_allclose(got, midpoint, atol=1e-12)


class TestLayerForward:
    def test_single_sentence_has_zero_bias(self, rng):
        d = 4
        layer = zero_layer(d)
        layer.w_value = rng.normal(size=(d, d))
        reps = rng.normal(size=(3, d))
        _, acts = layer_forward(reps, layer, [(1,)], epsilon=1e-6)
        assert acts.kg_bias == 0.0

    def test_zero_query_key_projections_give_uniform_attention(self, rng):
        d = 4
        layer = zero_layer(d)
        reps = rng.normal(size=(5, d))
        _, acts = layer_forward(reps, layer, [(1,), (0,), (1,)], epsilon=1e-6)
        np.testing.assert_array_equal(acts.attention, np.full((5, 5), 0.2))

    def test_equal_tokens_with_identity_values_stay_equal(self):
        d = 3
        layer = zero_layer(d)
        layer.w_value = np.eye(d)
        token = np.array([0.5, -1.0, 2.0])
        layer.kcls_init = token.copy()
        reps = np.tile(token, (4, 1))
        new_reps, _ = layer_forward(reps, layer, [(1,), (1,)], epsilon=1e-6)
        np.testing.assert_allclose(new_reps, np.tile(2.0 * token, (4, 1)), atol=1e-12)

    def test_attention_rows_sum_to_one(self, rng):
        d = 8
        layer = zero_layer(d)
        layer.w_query = rng.normal(size=(d, d))
        layer.w_key = rng.normal(size=(d, d))
        reps = rng.normal(size=(6, d))
        _, acts = layer_forward(reps, layer, [(1,)] * 4, epsilon=1e-6)
        np.testing.assert_allclose(acts.attention.sum(axis=1), 1.0, atol=1e-9)

    def test_incoming_kcls_row_is_overwritten(self, rng):
        d = 4
        layer = zero_layer(d)
        layer.w_value = rng.normal(size=(d, d))
        layer.kcls_init = rng.normal(size=d)
        reps_a = rng.normal(size=(4, d))
        reps_b = reps_a.copy()
        reps_b[1] = rng.normal(size=d)  # incoming knowledge-token row differs
        out_a, _ = layer_forward(reps_a, layer, [(1,), (0,)], epsilon=1e-6)
        out_b, _ = layer_forward(reps_b, layer, [(1,), (0,)], epsilon=1e-6)
        np.testing.assert_array_equal(out_a, out_b)

    def test_no_sentence_rows_rejected(self):
        layer = zero_layer(4)
        with pytest.raises(ValueError):
            layer_forward(np.zeros((2, 4)), layer, [], epsilon=1e-6)

    def test_vector_count_mismatch_rejected(self, rng):
        layer = zero_layer(4)
        with pytest.raises(ValueError):
            layer_forward(rng.normal(size=(4, 4)), layer, [(1,)], epsilon=1e-6)

    def test_non_positive_epsilon_rejected(self, rng):
        layer = zero_layer(4)
        with pytest.raises(ValueError):
            layer_forward(rng.normal(size=(3, 4)), layer, [(1,)], epsilon=0.0)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_token_matrix_takes_the_parameters_dtype(self, rng, dtype):
        d = 8
        layer = zero_layer(d)
        for name in ("w_query", "w_key", "w_value", "kcls_init", "w_out"):
            setattr(layer, name, rng.normal(size=getattr(layer, name).shape))
        cvs = [(1,), (0,), (1,), (1,)]
        # small integers, exact in every dtype here
        reps = rng.integers(-3, 4, size=(6, d)).astype(dtype)
        want_reps, want = layer_forward(reps.astype(np.float64), layer, cvs, epsilon=1.0)
        got_reps, got = layer_forward(reps, layer, cvs, epsilon=1.0)
        assert got.x.dtype == got_reps.dtype == np.float64
        assert got_reps.tobytes() == want_reps.tobytes()
        assert got.log_probs.tobytes() == want.log_probs.tobytes()
        assert got.kg_bias == want.kg_bias

    def test_bias_weighs_each_sentence_pair_once(self, rng, monkeypatch):
        d = 4
        layer = zero_layer(d)
        layer.w_value = rng.normal(size=(d, d))
        reps = rng.normal(size=(4, d))
        cvs = [(1,), (0,)]
        calls, hamming = [], model_module.hamming_distance
        monkeypatch.setattr(
            model_module, "hamming_distance", lambda *a: calls.append(a) or hamming(*a)
        )
        _, acts = layer_forward(reps, layer, cvs, epsilon=1e-6)
        assert acts.kg_bias < 0.0
        assert len(calls) == 1


class TestForward:
    def test_first_layer_cls_attention_row_is_uniform(self, make_model):
        model = make_model(dimension=16, seed=1)
        _, activations = forward(model, TWO_SENTENCE_POST)
        row = activations[0].attention[0]
        assert np.all(row == row[0])
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_final_product_never_exceeds_any_layer_probability(self, make_model, rng):
        for seed in range(8):
            model = make_model(dimension=8, seed=seed, value_scale=0.1)
            final, activations = forward(model, TWO_SENTENCE_POST)
            stacked = np.vstack([a.layer_probs for a in activations])
            assert np.all(final <= stacked.min(axis=0) + 1e-15)
            assert np.all(final > 0.0) and np.all(final < 1.0)

    def test_forward_is_deterministic(self, make_model):
        model = make_model(dimension=8, seed=3)
        a, _ = forward(model, TWO_SENTENCE_POST)
        b, _ = forward(model, TWO_SENTENCE_POST)
        assert a.tobytes() == b.tobytes()

    def test_missing_presence_rejected(self, make_model):
        model = make_model()
        with pytest.raises(DataFormatError, match="sentence_presence"):
            forward(model, Post(id="p", sentences=["hello."]))

    def test_bias_disabled_model_reports_zero_biases(self, make_model):
        model = make_model(dimension=8, seed=2, kg_bias_enabled=False)
        _, activations = forward(model, TWO_SENTENCE_POST)
        assert all(a.kg_bias == 0.0 for a in activations)


class TestPenaltyPaths:
    def test_a_penalty_off_post_compiles_without_groups(self, make_model):
        on, off = (make_model(dimension=8, kg_bias_enabled=flag) for flag in (True, False))
        assert all(groups is not None for groups in compile_post(on, TWO_SENTENCE_POST).groups)
        assert compile_post(off, TWO_SENTENCE_POST).groups == (None,) * len(off.layers)

    def test_a_one_sentence_post_compiles_without_groups(self, make_model):
        # with the penalty on, a post with no sentence pair holds no groups
        # at any layer, and its penalty is a NumPy zero
        model = make_model(dimension=8)
        post = Post(id="one", sentences=["only one sentence."], sentence_presence=[(1, 0, 1)])
        assert compile_post(model, post).groups == (None,) * len(model.layers)
        _, acts = forward(model, post)
        assert all(type(act.kg_bias) is np.float64 and act.kg_bias == 0.0 for act in acts)

    def test_forward_bias_equals_public_kg_bias(self, make_model):
        # repeated restricted vectors put 1/epsilon weights on several pairs,
        # and six sentences make each sentence appear in five pairs
        presence = [(1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)]
        post = Post(
            id="rep",
            sentences=[f"sentence number {i} here." for i in range(len(presence))],
            sentence_presence=presence,
        )
        model = make_model(dimension=8, seed=3, epsilon=0.5)
        _, acts = forward(model, post)
        for layer, act in zip(model.layers, acts):
            restricted = [connection_vector(row, layer.context) for row in presence]
            assert act.kg_bias < 0.0
            assert act.kg_bias == kg_bias(act.kcls_contribs, restricted, model.epsilon)

    def test_long_post_compiles_to_sentence_sized_groups(self, make_model):
        # 300 sentences make 44,850 pairs, whose index and per-layer weight
        # arrays took about 2.1 MB; each layer's groups keep O(n) numbers
        n = 300
        post = Post(
            id="long",
            sentences=[f"sentence number {i} here." for i in range(n)],
            sentence_presence=[(i % 2, (i // 2) % 2, (i // 4) % 2) for i in range(n)],
        )
        compiled = compile_post(make_model(dimension=8), post)
        assert len(compiled.groups) == 4
        for groups in compiled.groups:
            fields = [getattr(groups, f.name) for f in dataclasses.fields(groups)]
            arrays = [v for v in fields if isinstance(v, np.ndarray)]
            # two (n,) arrays, the sentences' groups and loads, and at most
            # eight groups in the default tree's widest context, whose
            # (G, G) table takes 512 B
            assert groups.cross.shape == (groups.first.size,) * 2
            assert sum(a.nbytes for a in arrays) < 24 * n


def long_post(n: int, seed: int = 0) -> Post:
    """An n-sentence post with random concept flags, so every hamming
    distance and repeated restricted vectors occur."""
    rng = np.random.default_rng(seed)
    return Post(
        id=f"long{n}",
        sentences=[f"sentence number {i} here." for i in range(n)],
        sentence_presence=[tuple(int(b) for b in row) for row in rng.integers(0, 2, (n, 3))],
    )


def random_layer(rng, n: int, bits: int, epsilon: float):
    """Random restricted connection vectors for n sentences and their
    `_Groups`."""
    restricted = [tuple(int(b) for b in row) for row in rng.integers(0, 2, (n, bits))]
    return restricted, model_module._groups(restricted, epsilon)


def pair_loop(contribs: np.ndarray, restricted, epsilon: float):
    """The penalty and its gradient pair by pair, in `contribs`' dtype: the
    definition the group form must meet."""
    n = len(restricted)
    value = contribs.dtype.type(0.0)
    grad = np.zeros_like(contribs)
    for i in range(n):
        for j in range(i + 1, n):
            dist = sum(a != b for a, b in zip(restricted[i], restricted[j]))
            diff = contribs[i] - contribs[j]
            weight = 1.0 / (dist + epsilon)
            value -= weight * (diff * diff).sum()
            grad[i] -= 2.0 * weight * diff
            grad[j] += 2.0 * weight * diff
    return value, grad


class TestPairPath:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 100])
    def test_pair_weights_match_a_pair_loop(self, n):
        # the distances the pair weights are read from
        rng = np.random.default_rng(n)
        restricted = [tuple(int(b) for b in row) for row in rng.integers(0, 2, (n, 2))]
        loop_dists = []
        for i in range(n):
            for j in range(i + 1, n):
                dist = sum(int(x) != int(y) for x, y in zip(restricted[i], restricted[j]))
                loop_dists.append(dist)
        dists = model_module._pair_distances(restricted)
        assert dists.dtype == np.intp
        assert dists.tobytes() == np.array(loop_dists, dtype=np.intp).tobytes()

    @pytest.mark.parametrize("eps", [0.3, 1e-6, 1])
    def test_group_weights_are_one_over_distance_plus_epsilon(self, eps):
        # every weight `_groups` makes, W_gh n_g n_h across groups and the
        # within-group 1/epsilon in `load`, bit for bit against the array
        # form 1 / (d + epsilon)
        restricted = [(0, 0, 1), (1, 1, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)]
        groups = model_module._groups(restricted, eps)
        vectors = [restricted[i] for i in groups.first]
        dists = np.array([[hamming_distance(u, v) for v in vectors] for u in vectors])
        table = 1.0 / (dists + eps)
        np.fill_diagonal(table, np.where(groups.sizes > 1.0, 1.0 / (0.0 + eps), 0.0))
        cross = table * groups.sizes[:, None] * groups.sizes[None, :]
        np.fill_diagonal(cross, 0.0)
        assert groups.cross.tobytes() == cross.tobytes()
        sizes = groups.sizes.tolist()
        load = [sum(w * size for w, size in zip(row, sizes)) for row in table.tolist()]
        assert groups.load.tobytes() == np.array(load)[groups.codes].tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("n", [5, 100])  # a few groups, dozens
    def test_group_walk_penalty_equals_one_pass(self, rng, dtype, n):
        # the cross term walks the groups, group h against groups 0..h-1;
        # one pass over every pair (g, h), g < h, ordered by h, then g,
        # gives the same sum bit for bit. Eight bits give up to n groups
        _, groups = random_layer(rng, n, 8, 1e-6)
        assert groups.first.size > (50 if n == 100 else 2)
        h, g = np.tril_indices(groups.first.size, -1)
        contribs = rng.standard_normal((n, 16)).astype(dtype)
        means = model_module._group_means(contribs, groups)
        spread = contribs - means[groups.codes]
        diffs = means[g] - means[h]
        within = (spread * spread).sum(axis=1) * groups.load
        cross = (diffs * diffs).sum(axis=1) * groups.cross[h, g]
        expected = -np.add.accumulate(np.concatenate((within, cross)))[-1]
        got = model_module._penalty(contribs, groups)
        assert got.dtype == expected.dtype == dtype
        assert_identical(got, expected, "penalty")

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("lead", [(), (3,)])  # rows of one post, of three
    # at n = 200 the first row's 199 partners fill a (3, 199, 16) float64
    # difference buffer of 76,416 bytes
    @pytest.mark.parametrize("n", [4, 6, 8, 200])
    def test_partial_and_full_blocks_equal_one_pass(self, rng, dtype, lead, n):
        # the post-pair norms of `analysis`, each row's differences in the
        # one buffer of the call, against one `np.linalg.norm` per pair
        # i < j in `np.triu_indices` order, bit for bit, in float64 and in
        # long double
        pi, pj = np.triu_indices(n, 1)
        reps = rng.standard_normal(lead + (n, 16)).astype(dtype)
        got = analysis_module._pair_norms(reps)
        want = [
            [np.linalg.norm(rows[i] - rows[j]) for i, j in zip(pi, pj)]
            for rows in reps.reshape(-1, n, 16)
        ]
        assert got.shape == lead + pi.shape
        assert got.tobytes() == np.array(want, np.float64).tobytes()

    def test_forward_on_a_300_sentence_post_stays_small(self, make_model):
        # the groups' arrays are O(n); one (pairs, d) temporary over all
        # 44,850 pairs would take 23 MB at d = 64
        model = make_model(dimension=64, epsilon=1.0)
        post = long_post(300)
        forward(model, post)  # warm-up only: forward caches no embeddings
        tracemalloc.start()
        try:
            forward(model, post)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000


class TestGroupPenalty:
    """The penalty and its gradient over groups of equal connection vectors
    against the pair-by-pair definition."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_penalty_and_gradient_match_a_pair_loop(self, dtype):
        rng = np.random.default_rng(23)
        for _ in range(150):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 17))
            epsilon = float(10.0 ** rng.uniform(-8, 0))
            restricted, groups = random_layer(rng, n, int(rng.integers(1, 4)), epsilon)
            contribs = rng.standard_normal((n, d)).astype(dtype)
            want, want_grad = pair_loop(contribs, restricted, epsilon)
            got = model_module._penalty(contribs, groups)
            assert got.dtype == dtype
            assert got <= 0.0
            assert abs(got - want) <= 1e-13 * abs(want)
            grad = model_module._penalty_grad(
                contribs[None], model_module._stack_groups([groups]), np.ones(1, dtype),
                np.empty((1, n, d), dtype),
            )[0]
            assert np.abs(grad - want_grad).max() <= 1e-13 * np.abs(want_grad).max()

    def test_fresh_and_shared_vectors_give_the_same_groups(self, monkeypatch):
        rng = np.random.default_rng(29)
        fresh = [tuple(row) for row in rng.integers(0, 2, (60, 3)).tolist()]
        first = {}
        shared = [first.setdefault(v, v) for v in fresh]
        calls = []

        def recorded(a, b):
            calls.append((a, b))
            return hamming_distance(a, b)

        monkeypatch.setattr(model_module, "hamming_distance", recorded)
        built = [model_module._groups(vectors, 0.5) for vectors in (fresh, shared)]
        for f in dataclasses.fields(model_module._Groups):
            a, b = (getattr(groups, f.name) for groups in built)
            if f.name == "shared":
                assert a is b is True
            else:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        # one call per pair, and each pair within a group passes one object twice
        assert len(calls) == 2 * 60 * 59 // 2
        assert all((a is b) == (a == b) for a, b in calls)

    def test_groups_nearly_as_many_as_sentences(self):
        # nine bits put 300 sentences into 229 groups, 26,106 group pairs:
        # one (G, G, d) array of their differences would take 27 MB, and
        # the walk keeps one group's row of them at a time
        rng = np.random.default_rng(0)
        restricted, groups = random_layer(rng, 300, 9, 1e-6)
        assert groups.first.size == 229
        contribs = rng.standard_normal((300, 64))
        want, want_grad = pair_loop(contribs, restricted, 1e-6)
        stacked = model_module._stack_groups([groups])
        out = np.empty((1, 300, 64))
        tracemalloc.start()
        try:
            got = model_module._penalty(contribs, groups)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            grad = model_module._penalty_grad(contribs[None], stacked, np.ones(1), out)[0]
            _, grad_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(got - want) <= 1e-13 * abs(want)
        assert np.abs(grad - want_grad).max() <= 1e-13 * np.abs(want_grad).max()
        assert max(peak, grad_peak) < 4_000_000
        # the gradient walks one (G, d) array per group; two stacked copies
        # of the means and the table took 1.7 MB
        assert grad_peak < 1_200_000

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_equal_rows_give_exactly_zero(self, dtype):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            _, groups = random_layer(rng, n, int(rng.integers(1, 4)), 1e-6)
            row = rng.standard_normal(int(rng.integers(1, 9))).astype(dtype)
            contribs = np.tile(row, (n, 1))
            assert model_module._penalty(contribs, groups) == 0.0
            grad = model_module._penalty_grad(
                contribs[None], model_module._stack_groups([groups]), np.ones(1, dtype),
                np.empty((1,) + contribs.shape, dtype),
            )
            assert not grad.any()

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_a_bucket_gives_each_post_its_own_penalty(self, dtype):
        # posts of one length with 1 to 8 groups: each is padded to the
        # bucket's largest count, and its row is its one-post penalty
        rng = np.random.default_rng(9)
        for n in (2, 3, 9, 30):
            layers = [random_layer(rng, n, bits, 0.1)[1] for bits in (1, 2, 3, 3, 3)]
            assert len({g.first.size for g in layers}) > 1
            contribs = rng.standard_normal((len(layers), n, 8)).astype(dtype)
            bucket = model_module._penalty(contribs, model_module._stack_groups(layers))
            for b, groups in enumerate(layers):
                single = model_module._penalty(contribs[b], groups)
                assert_identical(bucket[b], single, f"n={n} b={b}")

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_padded_groups_add_nothing(self, dtype):
        rng = np.random.default_rng(4)
        # one group, then two, padded to eight groups by a post that has them
        many = model_module._groups([(i % 2, i // 2 % 2, i // 4) for i in range(8)], 0.5)
        for restricted in ([(1, 0, 0)] * 8, [(1, 0, 0)] * 4 + [(0, 0, 1)] * 4):
            groups = model_module._groups(restricted, 0.5)
            padded = model_module._stack_groups([groups, many])
            assert padded.first.shape == (2, 8)
            contribs = rng.standard_normal((2, 8, 4)).astype(dtype)
            alone = model_module._stack_groups([groups])
            assert_identical(
                model_module._penalty(contribs, padded)[0],
                model_module._penalty(contribs[:1], alone)[0],
                "penalty",
            )
            grads = [
                model_module._penalty_grad(
                    c, gr, np.ones(len(c), dtype), np.empty(c.shape, dtype)
                )[0]
                for c, gr in ((contribs, padded), (contribs[:1], alone))
            ]
            assert_identical(*grads, "gradient")


class TestRunningSum:
    """`_running_sum`, the one in-order sum: each result is the one a Python
    loop gives that adds the terms one by one from 0.0, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_equals_a_term_by_term_loop(self, dtype, axis):
        # 1.0, then nine half-ulps: the loop rounds each sum back to 1.0,
        # where `np.sum`'s pairwise order adds half-ulps to each other first
        terms = np.array([1.0] + [np.finfo(dtype).eps / 2] * 9, dtype=dtype)
        assert np.sum(terms) != 1.0
        # the terms times 1, 2 and 0.5 along the other axes, (10, 3, 2)
        # before the summed axis moves into place
        values = terms[:, None, None] * np.array([1.0, 2.0, 0.5], dtype)[:, None]
        values = np.moveaxis(np.repeat(values, 2, axis=2), 0, axis)
        got = model_module._running_sum(values, axis=axis)
        moved = np.moveaxis(values, axis, 0)
        want = np.empty(moved.shape[1:], dtype=dtype)
        for index in np.ndindex(want.shape):
            total = dtype(0.0)
            for term in moved[(slice(None), *index)]:
                total = total + term
            want[index] = total
        assert_identical(got, want, "running sum")
        assert (want[0] == 1.0).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_an_all_negative_zero_row_sums_to_positive_zero(self, dtype):
        got = model_module._running_sum(np.full((2, 9), -0.0, dtype=dtype), axis=1)
        assert got.tolist() == [0.0, 0.0]
        assert not np.signbit(got).any()


class TestAggregateProbs:
    def test_two_layer_product_is_exact(self):
        final = aggregate_probs([np.full(4, 0.8), np.full(4, 0.5)])
        np.testing.assert_array_equal(final, np.full(4, 0.8 * 0.5))
        assert final[0] == 0.4

    def test_single_layer_is_identity(self):
        row = np.array([0.2, 0.4, 0.6, 0.8])
        np.testing.assert_array_equal(aggregate_probs([row]), row)

    def test_product_bounded_by_min(self, rng):
        rows = rng.uniform(0.05, 0.95, size=(4, N_OUTCOMES))
        final = aggregate_probs(rows)
        assert np.all(final <= rows.min(axis=0) + 1e-15)

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            aggregate_probs(np.array([0.5, 0.5]))


class TestNormalizePredict:
    def test_normalized_view_sums_to_one(self):
        final = np.array([0.1, 0.2, 0.3, 0.4])
        norm = normalize_probs(final)
        assert norm.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(norm, final / 1.0, atol=1e-12)

    def test_degenerate_vector_rejected(self):
        with pytest.raises(NumericalError):
            normalize_probs(np.zeros(4))
        with pytest.raises(NumericalError):
            normalize_probs(np.array([np.nan, 0.1, 0.1, 0.1]))

    def test_predict_matches_forward_argmax(self, make_model):
        # predict ranks by the log final product: the passes' log-probabilities
        # added in stack order
        for seed in range(5):
            model = make_model(dimension=8, seed=seed, value_scale=0.2)
            _, passes = forward(model, TWO_SENTENCE_POST)
            log_f = sum(lp.log_probs for lp in passes)
            assert predict(model, TWO_SENTENCE_POST) is LAYER_ORDER[int(np.argmax(log_f))]

    def test_tie_break_prefers_earliest_outcome(self):
        # predict resolves argmax ties to the first position in layer order
        assert int(np.argmax(np.array([0.25, 0.25, 0.25, 0.25]))) == 0

    def test_normalization_preserves_argmax(self, make_model):
        model = make_model(dimension=8, seed=7, value_scale=0.2)
        final, _ = forward(model, TWO_SENTENCE_POST)
        assert int(np.argmax(final)) == int(np.argmax(normalize_probs(final)))


class TestCompilePost:
    def test_pairwise_weights_follow_context_restriction(self, make_model):
        model = make_model(dimension=8)
        post = Post(
            id="p",
            sentences=["one.", "two."],
            sentence_presence=[(1, 0, 0), (0, 1, 0)],
        )
        compiled = compile_post(model, post)
        eps = model.epsilon
        # layer contexts: {0}, {0,1}, {0,1,2}, {0,1,2} restrict the two
        # presence rows to hamming distances 1, 2, 2, 2: two groups of one
        # sentence each, whose cross weight is the pair's
        for groups, dist in zip(compiled.groups, (1, 2, 2, 2)):
            assert groups.codes.tolist() == [0, 1]
            weight = 1.0 / (dist + eps)
            assert groups.cross.tolist() == [[0.0, weight], [weight, 0.0]]
        assert compiled.gold is None
        assert compiled.n_sentences == 2

    def test_sentence_count_is_the_embeddings_row_count(self, make_model):
        compiled = compile_post(make_model(dimension=8), long_post(7))
        assert compiled.n_sentences == compiled.embeddings.shape[0] == 7
        with pytest.raises(AttributeError):
            compiled.n_sentences = 3

    def test_gold_index_follows_layer_order(self, make_model):
        model = make_model()
        compiled = compile_post(model, TWO_SENTENCE_POST)
        assert compiled.gold == LAYER_ORDER.index(Outcome.IDEATION_1)

    def test_presence_length_mismatch_rejected(self, make_model):
        # `Post` counts the rows, a triple's as a post's own
        model = make_model()
        post = Post(id="p", sentences=["a.", "b."])
        with pytest.raises(DataFormatError, match="post 'p': sentence_presence length 1"):
            compile_batch(model, [(post, [(1, 0, 0)], Outcome.IDEATION_1)])
        with pytest.raises(DataFormatError, match="presence"):
            dataclasses.replace(post, sentence_presence=[(1, 0, 0)])

    def test_presence_width_mismatch_rejected(self, make_model):
        # the width against K needs the model's tree, so `compile_post` checks it
        model = make_model()
        post = Post(id="p", sentences=["a."], sentence_presence=[(1, 0)])
        with pytest.raises(DataFormatError, match="post 'p': presence vector length 2 != K=3"):
            compile_post(model, post)
        with pytest.raises(DataFormatError, match="length"):
            compile_batch(model, [(post, [(1, 0)], Outcome.IDEATION_1)])

    def test_file_backed_mode_reads_table_by_sentence_key(self, make_model):
        table = {
            "p:0": np.array([1.0, 0.0, 0.0, 0.0]),
            "p:1": np.array([0.0, 1.0, 0.0, 0.0]),
        }
        model = make_model(dimension=4, embeddings_table=table)
        post = Post(
            id="p", sentences=["a.", "b."], sentence_presence=[(1, 0, 0), (0, 0, 0)]
        )
        compiled = compile_post(model, post)
        np.testing.assert_array_equal(compiled.embeddings[0], table["p:0"])
        np.testing.assert_array_equal(compiled.embeddings[1], table["p:1"])

    def test_file_backed_missing_key_rejected(self, make_model):
        model = make_model(dimension=4, embeddings_table={})
        post = Post(id="p", sentences=["a."], sentence_presence=[(0, 0, 0)])
        with pytest.raises(DataFormatError, match="p:0"):
            compile_post(model, post)

    def test_file_backed_dimension_mismatch_rejected(self, make_model):
        model = make_model(dimension=4, embeddings_table={"p:0": np.ones(3)})
        post = Post(id="p", sentences=["a."], sentence_presence=[(0, 0, 0)])
        with pytest.raises(DataFormatError, match="dimension"):
            compile_post(model, post)


BAD_EPSILONS = [math.nan, math.inf, 0.0, -0.5]


class TestEpsilonCheck:
    """`KsatModel`, `kg_bias` and `layer_forward` share one check: epsilon
    must be finite and positive. A NaN would poison the penalty, and inf
    would switch it off without a word."""

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_model_refuses(self, tree, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            KsatModel.initialize(tree, EmbeddingConfig(dimension=4, seed=0), epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_kg_bias_refuses(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            kg_bias(np.eye(2, 3), [(1,), (1,)], epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_layer_forward_refuses(self, rng, epsilon):
        layer = zero_layer(4)
        layer.w_value = rng.normal(size=(4, 4))
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            layer_forward(rng.normal(size=(4, 4)), layer, [(1,), (1,)], epsilon=epsilon)


class TestModelValidation:
    def test_non_positive_epsilon_rejected(self, tree):
        with pytest.raises(ValueError):
            KsatModel.initialize(tree, EmbeddingConfig(dimension=4, seed=0), epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, tree, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            KsatModel.initialize(tree, EmbeddingConfig(dimension=4, seed=0), epsilon=epsilon)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epsilon", True),
            ("epsilon", "1"),
            ("epsilon", 10**400),
            ("kg_bias_enabled", 1),
            ("kg_bias_enabled", "no"),
            ("a_raw", True),
            ("a_raw", "0.5"),
            ("context", (0.0,)),
        ],
        ids=["epsilon-bool", "epsilon-string", "epsilon-beyond-float", "flag-int",
             "flag-string", "a_raw-bool", "a_raw-string", "context-float"],
    )
    def test_a_mistyped_field_rejected(self, make_model, field, value):
        # each would build a model whose saved file `load_model` refuses
        model = make_model(dimension=4)
        if field in ("a_raw", "context"):
            setattr(model.layers[0], field, value)
            changes = {}
        else:
            changes = {field: value}
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(model, **changes)

    def test_whole_numbers_are_stored_as_floats(self, make_model, tree, tmp_path):
        model = make_model(dimension=4)
        model.layers[0].a_raw = -2
        model = dataclasses.replace(model, epsilon=1)
        assert type(model.epsilon) is float and type(model.layers[0].a_raw) is float
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path, tree)
        assert (loaded.epsilon, loaded.layers[0].a_raw) == (1.0, -2.0)

    def test_layer_order_enforced(self, tree, make_model):
        model = make_model(dimension=4)
        layers = list(model.layers)
        layers[0], layers[1] = layers[1], layers[0]
        with pytest.raises(DataFormatError, match="fixed outcome order"):
            KsatModel(
                layers=layers,
                tree=tree,
                embedding_config=model.embedding_config,
            )

    def test_a_layer_context_other_than_the_trees_rejected(self, make_model):
        model = make_model(dimension=4)
        model.layers[1].context = (2,)
        with pytest.raises(DataFormatError, match="context"):
            dataclasses.replace(model)

    def test_shape_mismatch_rejected(self, tree, make_model):
        model = make_model(dimension=4)
        model.layers[2].w_out = np.zeros((4, 3))
        with pytest.raises(DataFormatError, match="w_out"):
            KsatModel(
                layers=model.layers,
                tree=tree,
                embedding_config=model.embedding_config,
            )

    def test_initialize_is_seed_deterministic(self, make_model):
        a = make_model(dimension=8, seed=5)
        b = make_model(dimension=8, seed=5)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.w_query, lb.w_query)
            np.testing.assert_array_equal(la.w_out, lb.w_out)

    @pytest.mark.parametrize("dimension, value_scale", [(4, 0.0), (8, 0.25)])
    def test_initialize_draws_blocks_in_documented_order(
        self, make_model, dimension, value_scale
    ):
        model = make_model(dimension=dimension, seed=3, value_scale=value_scale)
        rng = np.random.default_rng(3)
        d, scale = dimension, 1.0 / math.sqrt(dimension)
        for layer in model.layers:
            expected = {
                "w_query": scale * rng.standard_normal((d, d)),
                "w_key": scale * rng.standard_normal((d, d)),
                "w_value": value_scale * rng.standard_normal((d, d)),
                "kcls_init": scale * rng.standard_normal(d),
                "w_out": scale * rng.standard_normal((d, N_OUTCOMES)),
            }
            for name, want in expected.items():
                got = getattr(layer, name)
                assert got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
            assert layer.a_raw == 0.0

    def test_layer_contexts_come_from_the_tree(self, tree, make_model):
        model = make_model()
        for layer in model.layers:
            assert layer.context == tree.layer_contexts[layer.outcome]


class TestPersistence:
    def test_save_load_round_trip_is_bitwise_on_forward(self, tree, make_model, tmp_path):
        model = make_model(dimension=8, seed=11, value_scale=0.3)
        model.layers[2].a_raw = -0.7
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path, tree)
        final_a, acts_a = forward(model, TWO_SENTENCE_POST)
        final_b, acts_b = forward(loaded, TWO_SENTENCE_POST)
        assert final_a.tobytes() == final_b.tobytes()
        for a, b in zip(acts_a, acts_b):
            assert a.attention.tobytes() == b.attention.tobytes()
            assert a.z_kcls.tobytes() == b.z_kcls.tobytes()
            assert float(a.kg_bias) == float(b.kg_bias)

    @pytest.mark.parametrize("embed_seed", [0, 2**64 - 1])
    def test_embedding_config_round_trips(self, tree, make_model, tmp_path, embed_seed):
        # `EmbeddingConfig` takes only what `load_model` reads back
        model = make_model(dimension=5, embed_seed=embed_seed)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path, tree).embedding_config == EmbeddingConfig(5, embed_seed)

    def test_save_is_byte_deterministic(self, make_model, tmp_path):
        model = make_model(dimension=4, seed=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_taxonomy_mismatch(self, tree, make_model, tmp_path):
        import json as _json

        model = make_model(dimension=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        data = _json.loads(path.read_text())
        data["taxonomy_hash"] = "0" * 64
        path.write_text(_json.dumps(data))
        with pytest.raises(DataFormatError, match="different taxonomy"):
            load_model(path, tree)

    @pytest.mark.parametrize("name", ["w_query", "w_key", "w_value", "kcls_init", "w_out"])
    def test_load_rejects_a_block_one_entry_short(self, tree, make_model, tmp_path, name):
        path = tmp_path / "model.json"
        save_model(make_model(dimension=4), path)
        data = json.loads(path.read_text())
        data["layers"][2][name].pop()
        path.write_text(json.dumps(data))
        with pytest.raises(DataFormatError):
            load_model(path, tree)

    @pytest.mark.parametrize("epsilon", [0, -1.0, "NaN"])
    def test_load_rejects_a_bad_epsilon_naming_the_file(self, tree, make_model, tmp_path, epsilon):
        path = tmp_path / "model.json"
        save_model(make_model(dimension=4), path)
        text = path.read_text().replace('"epsilon": 1e-06', f'"epsilon": {epsilon}')
        assert f'"epsilon": {epsilon}' in text
        path.write_text(text)
        with pytest.raises(DataFormatError, match="epsilon must be finite") as info:
            load_model(path, tree)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("kg_bias_enabled",), "false"),
            (("kg_bias_enabled",), 0),
            (("dimension",), 4.9),
            (("embedding", "dimension"), 4.0),
            (("embedding", "seed"), "7"),
            (("embedding", "seed"), True),
            (("version",), 99),
            (("epsilon",), "1e-3"),
            (("layers", 1, "context"), [0, 1.9]),
            (("layers", 1, "context"), [2]),
            (("layers", 0, "a_raw"), "0.5"),
            (("layers", 0, "a_raw"), True),
            (("layers", 0, "w_out"), ["0.5"] * 16),
            (("layers", 0, "w_out"), [True] * 16),
            (("dimension",), 8),
            (("version",), True),
            (("epsilon",), True),
            (("layers", 0, "context"), [True]),
            (("layers", 0, "context"), "0"),
        ],
        ids=["flag-string", "flag-int", "dimension-float", "embedding-dimension-float",
             "seed-string", "seed-bool", "version-other", "epsilon-string", "context-float",
             "context-not-the-trees", "a_raw-string", "a_raw-bool", "block-strings",
             "block-bools", "dimension-other", "version-bool", "epsilon-bool", "context-bool",
             "context-string"],
    )
    def test_load_rejects_a_mistyped_flag_or_integer(self, tree, make_model, tmp_path, keys, value):
        # bool("false") is True, int(4.9) is 4 and float("0.5") is 0.5: such
        # a file would load with the penalty silently on, a truncated
        # dimension or a context the tree does not give its layer
        path = tmp_path / "model.json"
        save_model(make_model(dimension=4, kg_bias_enabled=False), path)
        data = json.loads(path.read_text())
        entry = data
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        path.write_text(json.dumps(data))
        with pytest.raises(DataFormatError, match=keys[-1]) as info:
            load_model(path, tree)
        assert str(path) in str(info.value)

    def test_load_rejects_a_number_beyond_the_float_range(self, tree, make_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(make_model(dimension=4), path)
        data = json.loads(path.read_text())
        data["layers"][0]["a_raw"] = 10**400  # a JSON integer float() cannot take
        path.write_text(json.dumps(data))
        with pytest.raises(DataFormatError, match="malformed model JSON") as info:
            load_model(path, tree)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "keys", [("dimension",), ("layers", 0, "a_raw")], ids=["dimension", "a_raw"]
    )
    def test_load_rejects_an_integer_past_the_digit_limit(self, tree, make_model, tmp_path, keys):
        # Python refuses to parse an int of more than 4,300 digits with a
        # plain ValueError, not a JSONDecodeError
        path = tmp_path / "model.json"
        save_model(make_model(dimension=4), path)
        data = json.loads(path.read_text())
        entry = data
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = "BIG"
        path.write_text(json.dumps(data).replace('"BIG"', "1" + "0" * 5000))
        with pytest.raises(DataFormatError, match="invalid JSON") as info:
            load_model(path, tree)
        assert str(path) in str(info.value)

    def test_load_rejects_non_finite_parameters(self, tree, make_model, tmp_path):
        # JSON's NaN and Infinity parse as floats: such a model would give
        # NaN finals with only a RuntimeWarning
        path = tmp_path / "model.json"
        save_model(make_model(dimension=4), path)
        data = json.loads(path.read_text())
        data["layers"][2]["a_raw"] = math.inf
        path.write_text(json.dumps(data))
        with pytest.raises(DataFormatError, match=r"layers\[2\]\.a_raw must be finite") as info:
            load_model(path, tree)
        assert str(path) in str(info.value)
        data["layers"][1]["w_out"][5] = math.nan
        path.write_text(json.dumps(data))
        with pytest.raises(DataFormatError, match=r"layers\[1\]\.w_out must hold finite"):
            load_model(path, tree)

    @pytest.mark.parametrize(
        "layer, name, value, words",
        [(1, "w_out", math.nan, "must hold finite numbers"), (2, "a_raw", -math.inf, "must be finite")],
        ids=["w_out-nan", "a_raw-inf"],
    )
    def test_save_refuses_what_load_would_refuse(self, make_model, tmp_path, layer, name, value, words):
        # JSON would write a NaN or an infinity as a token `load_model`
        # refuses; the path is left as it was
        model = make_model(dimension=4)
        if name == "a_raw":
            model.layers[layer].a_raw = value
        else:
            getattr(model.layers[layer], name)[0, 0] = value
        path = tmp_path / "model.json"
        path.write_text("kept")
        with pytest.raises(DataFormatError) as info:
            save_model(model, path)
        assert str(info.value) == f"{path}: layers[{layer}].{name} {words}"
        assert path.read_text() == "kept"

    @settings(max_examples=300)
    @given(
        node=st.sampled_from(MODEL_FILE_NODES),
        change=st.sampled_from(["replace", "delete", "duplicate"]),
        value=st.sampled_from(FUZZ_VALUES),
    )
    def test_a_one_node_change_is_refused_or_loads_finite(
        self, tree, tmp_path_factory, node, change, value
    ):
        # the model file's contract: a change to one node is refused with a
        # DataFormatError that names the file, or loads a model whose numbers
        # are all finite and which saves and loads back equal
        data = json.loads(json.dumps(MODEL_FILE))
        *parents, key = node
        parent = data
        for step in parents:
            parent = parent[step]
        if change == "delete":
            del parent[key]
        elif change == "duplicate" and isinstance(parent, list):
            parent.insert(key, parent[key])
        else:  # a parsed JSON object holds each key once: replace instead
            parent[key] = value
        path = tmp_path_factory.getbasetemp() / "one-node-change.json"
        path.write_text(json.dumps(data))
        try:
            model = load_model(path, tree)
        except DataFormatError as exc:
            assert str(path) in str(exc)
            return
        numbers = [model.epsilon] + [
            getattr(layer, name) for layer in model.layers for name in (*ARRAY_BLOCKS, "a_raw")
        ]
        assert all(np.isfinite(number).all() for number in numbers)
        save_model(model, path)
        assert model_to_dict(load_model(path, tree)) == model_to_dict(model)

    def test_load_keeps_a_switched_off_penalty(self, tree, make_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(make_model(dimension=4, kg_bias_enabled=False), path)
        assert load_model(path, tree).kg_bias_enabled is False

    def test_load_rejects_foreign_json(self, tree, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(DataFormatError, match="not a"):
            load_model(path, tree)

    def test_load_rejects_a_json_array(self, tree, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataFormatError, match="not a") as info:
            load_model(path, tree)
        assert str(path) in str(info.value)

    def test_load_rejects_invalid_json(self, tree, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{truncated")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_model(path, tree)

    def test_load_rejects_a_file_backed_model_without_its_table(self, tree, make_model, tmp_path):
        path = tmp_path / "model.json"
        table = {"p:0": np.ones(4)}
        save_model(make_model(dimension=4, embeddings_table=table), path)
        assert json.loads(path.read_text())["embedding"]["vocabulary_mode"] == "file-backed"
        assert load_model(path, tree, table).embeddings_table is table
        with pytest.raises(DataFormatError, match="file-backed") as info:
            load_model(path, tree)
        assert str(path) in str(info.value)

    def test_load_rejects_a_table_for_a_feature_hash_model(self, tree, make_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(make_model(dimension=4), path)
        assert json.loads(path.read_text())["embedding"]["vocabulary_mode"] == "feature-hash"
        with pytest.raises(DataFormatError, match="feature hashing"):
            load_model(path, tree, {"p:0": np.ones(4)})

    def test_load_rejects_an_unknown_vocabulary_mode(self, tree, make_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(make_model(dimension=4), path)
        data = json.loads(path.read_text())
        data["embedding"]["vocabulary_mode"] = "pretrained"
        path.write_text(json.dumps(data))
        for table in (None, {}):
            with pytest.raises(DataFormatError, match="'pretrained'"):
                load_model(path, tree, table)

    def test_dict_form_tracks_bias_switch(self, make_model):
        model = make_model(kg_bias_enabled=False)
        assert model_to_dict(model)["kg_bias_enabled"] is False

    def test_clone_is_independent(self, make_model):
        model = make_model(dimension=4, seed=9, value_scale=0.2)
        twin = clone_model(model)
        final_a, _ = forward(model, TWO_SENTENCE_POST)
        final_b, _ = forward(twin, TWO_SENTENCE_POST)
        assert final_a.tobytes() == final_b.tobytes()
        twin.layers[0].w_query[0, 0] += 1.0
        assert model.layers[0].w_query[0, 0] != twin.layers[0].w_query[0, 0]


class TestRunLayers:
    def test_four_passes_in_layer_order(self, make_model):
        model = make_model(dimension=8)
        compiled = compile_post(model, TWO_SENTENCE_POST)
        passes = run_layers(model, compiled)
        assert len(passes) == 4
        for lp, layer in zip(passes, model.layers):
            assert lp.x.shape == (4, 8)
            np.testing.assert_array_equal(lp.x[1], layer.kcls_init)

    def test_reused_lower_passes_resume_the_stack_unchanged(self, make_model):
        model = make_model(dimension=8, seed=4, value_scale=0.2)
        compiled = compile_post(model, TWO_SENTENCE_POST)
        full = run_layers(model, compiled)
        for k in range(len(full) + 1):
            resumed = run_layers(model, compiled, full[:k])
            assert len(resumed) == len(full)
            assert all(a is b for a, b in zip(resumed[:k], full))
            for a, b in zip(resumed[k:], full[k:]):
                for name in ("x", "attention", "y", "kcls_contribs", "layer_probs", "log_probs"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
                assert a.kg_bias == b.kg_bias

    def test_representations_propagate_between_layers(self, make_model):
        model = make_model(dimension=8, seed=4, value_scale=0.2)
        compiled = compile_post(model, TWO_SENTENCE_POST)
        passes = run_layers(model, compiled)
        for prev, nxt in zip(passes, passes[1:]):
            np.testing.assert_array_equal(nxt.x[0], prev.y[0])
            np.testing.assert_array_equal(nxt.x[2:], prev.y[2:])


FIVE_SENTENCE_POST = Post(
    id="p5",
    sentences=[f"sentence number {i} here." for i in range(5)],
    sentence_presence=[(1, 0, 0), (1, 0, 0), (0, 1, 1), (0, 0, 1), (1, 1, 0)],
)


def assert_same_pass(a, b):
    """Every field of two layer passes equal, bit for bit."""
    for f in dataclasses.fields(LayerPass):
        got, want = np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name))
        assert got.dtype == want.dtype, f.name
        assert got.tobytes() == want.tobytes(), f.name


class TestOneLayerPath:
    """`forward` and `layer_forward` are views over the stack's one layer step."""

    def test_forward_records_are_the_stack_passes(self, make_model):
        model = make_model(dimension=8, seed=5, epsilon=1.0)
        _, records = forward(model, FIVE_SENTENCE_POST)
        passes = run_layers(model, compile_post(model, FIVE_SENTENCE_POST))
        assert len(records) == len(passes) == len(model.layers)
        for rec, lp in zip(records, passes):
            assert rec.kg_bias < 0.0
            assert_same_pass(rec, lp)

    def test_layer_forward_is_stack_pass_zero(self, make_model):
        model = make_model(dimension=8, seed=5, epsilon=1.0)
        compiled = compile_post(model, FIVE_SENTENCE_POST)
        first = run_layers(model, compiled)[0]
        layer = model.layers[0]
        reps = np.zeros((compiled.n_sentences + 2, model.dimension))
        reps[2:] = compiled.embeddings
        reps[1] = 7.0  # an incoming KCLS row the layer must overwrite in a copy
        before = reps.copy()
        restricted = [
            connection_vector(row, layer.context)
            for row in FIVE_SENTENCE_POST.sentence_presence
        ]
        new_reps, record = layer_forward(reps, layer, restricted, model.epsilon)
        assert_same_pass(record, first)
        assert new_reps is record.y
        assert reps.tobytes() == before.tobytes()


def assert_identical(got, want, name: str) -> None:
    """Same dtype, shape, values and signs. `np.longdouble`'s padding bytes
    are arbitrary, so bytes are not compared."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert np.array_equal(got, want), name
    assert np.array_equal(np.signbit(got), np.signbit(want)), name


def assert_bucket_row(bucket: LayerPass, b: int, single: LayerPass) -> None:
    """Row `b` of a bucket pass equals one post's pass, every field."""
    for f in dataclasses.fields(LayerPass):
        got = getattr(bucket, f.name)
        assert_identical(got if f.name == "alpha" else got[b], getattr(single, f.name), f.name)


def run_bucket(model, cps):
    """`_run_bucket`'s passes with a fresh arena, as one call of
    `loss_and_gradients` makes."""
    passes, _ = model_module._run_bucket(
        model, cps, model_module._Arena(model_module._param_dtype(model))
    )
    return passes


class TestBucketPass:
    """`_run_bucket` runs one `_layer_core` call per layer over all posts
    of one length; each post's numbers are the ones `run_layers` gives it."""

    @pytest.fixture
    def by_length(self):
        """Three or four posts of each length from 1 to 5 sentences, with
        random presence bits, so some pairs sit at Hamming distance 0."""
        rng = np.random.default_rng(8)
        return {
            n: [
                Post(
                    id=f"n{n}-{i}",
                    sentences=[f"post {i} of length {n} says thing {j}." for j in range(n)],
                    sentence_presence=[
                        tuple(int(bit) for bit in rng.integers(0, 2, 3)) for _ in range(n)
                    ],
                )
                for i in range(3 + n % 2)
            ]
            for n in range(1, 6)
        }

    @pytest.mark.parametrize("kg_bias_enabled", [True, False])
    @pytest.mark.parametrize("extended", [False, True])
    def test_every_field_equals_the_per_post_pass(
        self, make_model, by_length, kg_bias_enabled, extended
    ):
        model = make_model(dimension=8, seed=6, epsilon=1.0, kg_bias_enabled=kg_bias_enabled)
        if extended:
            model = _extended_precision_clone(model)
        for n, posts in by_length.items():
            cps = [compile_post(model, post) for post in posts]
            bucket = run_bucket(model, cps)
            assert len(bucket) == len(model.layers)
            for lp in bucket:
                assert lp.x.shape == (len(cps), n + 2, model.dimension)
                assert np.shape(lp.kg_bias) == (len(cps),)
            for b, cp in enumerate(cps):
                for bucket_lp, single in zip(bucket, run_layers(model, cp)):
                    assert_bucket_row(bucket_lp, b, single)
            if kg_bias_enabled and n > 1:
                assert all((lp.kg_bias < 0.0).all() for lp in bucket)

    def test_a_post_does_not_depend_on_its_bucket(self, make_model, by_length):
        model = make_model(dimension=8, seed=6, epsilon=1.0)
        cps = [compile_post(model, post) for post in by_length[4]]
        full = run_bucket(model, cps)
        for b, cp in enumerate(cps):
            alone = run_bucket(model, [cp])
            for lp_alone, lp_full in zip(alone, full):
                for f in dataclasses.fields(LayerPass):
                    got, want = getattr(lp_alone, f.name), getattr(lp_full, f.name)
                    if f.name != "alpha":
                        got, want = got[0], want[b]
                    assert_identical(got, want, f.name)
