"""Concept-presence annotation, Bernoulli scoring, and threshold grid search."""

from __future__ import annotations

import collections
import gc
import itertools
import math
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ksat import annotation
from ksat.annotation import (
    FRAG_SIZES,
    AnnotationParams,
    GridSearchResult,
    annotate_post,
    apply_annotations,
    bernoulli_log_likelihood,
    concept_present,
    default_params,
    fragments,
    grid_search,
    match_log_likelihood,
    outcome_frequencies,
    theta_lattice,
)
from ksat.corpus import Dataset, Post, default_synthetic_spec, generate_synthetic, split
from ksat.embeddings import EmbeddingConfig, cosine_similarity, embed_text
from ksat.errors import DataFormatError
from ksat.knowledge import (
    LAYER_ORDER,
    Concept,
    KnowledgeTree,
    Outcome,
    default_tree,
    outcome_for_assignment,
)

CFG64 = EmbeddingConfig(dimension=64, seed=0)
DELTA = 1e-9

SENTENCES = st.lists(
    st.text(alphabet="abcdef gun life", min_size=1, max_size=20), min_size=1, max_size=5
)
# sentences of query words and filler, so cosines spread over [-1, 1]
QUERY_WORDS = sorted({w for c in default_tree().concepts for w in c.query_text.split()})
WORDS = st.sampled_from(QUERY_WORDS + ["rain", "calm", "late"])
WORDY_SENTENCES = st.lists(
    st.lists(WORDS, min_size=1, max_size=6).map(" ".join), min_size=1, max_size=6
)


def one_concept_tree() -> KnowledgeTree:
    return KnowledgeTree(
        concepts=(Concept(id=0, name="risk", query_text="gun pills rope danger"),),
        outcome_map={
            (0,): Outcome.INDICATION_OR_NONE,
            (1,): Outcome.BEHAVIOR_OR_ATTEMPT,
        },
        layer_contexts={o: (0,) for o in LAYER_ORDER},
    )


class TestParamsValidation:
    def test_defaults(self):
        params = default_params()
        assert params.thetas == (0.3, 0.5, 0.3)
        assert params.frag_size == 1

    def test_theta_above_one_rejected(self):
        with pytest.raises(ValueError):
            AnnotationParams(thetas=(1.5, 0.0, 0.0))

    def test_theta_barely_above_one_rejected(self):
        with pytest.raises(ValueError):
            AnnotationParams(thetas=(1.0 + 1e-9, 0.0, 0.0))

    def test_theta_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            AnnotationParams(thetas=(-1.1, 0.0, 0.0))

    def test_empty_thetas_rejected(self):
        with pytest.raises(ValueError):
            AnnotationParams(thetas=())

    @pytest.mark.parametrize("bad", ["0.3", True, None], ids=repr)
    def test_a_theta_that_is_not_a_number_rejected(self, bad):
        # float() would read "0.3" as 0.3 and True as 1.0
        with pytest.raises(ValueError, match="theta must be a number"):
            AnnotationParams(thetas=(0.3, bad, 0.5))

    def test_whole_number_thetas_are_stored_as_floats(self):
        params = AnnotationParams(thetas=(0, 1, -1))
        assert params.thetas == (0.0, 1.0, -1.0)
        assert all(type(t) is float for t in params.thetas)

    def test_frag_size_out_of_range_rejected(self):
        for bad in (0, 4, -1, True, 2.0, "2"):
            with pytest.raises(ValueError):
                AnnotationParams(thetas=(0.0,), frag_size=bad)


class TestConceptPresent:
    def test_query_text_matches_itself_at_high_threshold(self, tree):
        concept = tree.concepts[0]
        assert concept_present(concept.query_text, concept, 0.99, CFG64)

    def test_orthogonal_fragment_rejected_at_high_threshold(self, tree):
        # "rain fell late yesterday" shares no hash bucket with any query
        # token at this seed/dimension; its cosine to every query is exactly 0.
        for concept in tree.concepts:
            sim = cosine_similarity(
                embed_text("rain fell late yesterday", CFG64),
                embed_text(concept.query_text, CFG64),
            )
            assert sim == 0.0
            assert not concept_present("rain fell late yesterday", concept, 0.9, CFG64)

    def test_threshold_minus_one_always_passes(self, tree):
        for concept in tree.concepts:
            assert concept_present("totally unrelated words", concept, -1.0, CFG64)


class TestFragments:
    def test_single_sentence_windows(self):
        assert fragments(["a.", "b.", "c."], 1) == ["a.", "b.", "c."]

    def test_two_sentence_windows_with_stride_one(self):
        assert fragments(["a.", "b.", "c."], 2) == ["a. b.", "b. c."]

    def test_three_sentence_window(self):
        assert fragments(["a.", "b.", "c."], 3) == ["a. b. c."]

    def test_short_post_collapses_to_whole_post_fragment(self):
        assert fragments(["a.", "b."], 3) == ["a. b."]
        assert fragments(["a."], 2) == ["a."]

    def test_invalid_window_size_rejected(self):
        with pytest.raises(ValueError):
            fragments(["a."], 5)


class TestAnnotatePost:
    def test_pinned_two_sentence_fixture(self, tree):
        # Frozen from an independent re-computation: the first sentence shares
        # 'a'/'gun' with the third concept's query (cosine ~0.49) and clears
        # its 0.3 threshold; both sentences stay below the other thresholds.
        post = Post(
            id="w1",
            sentences=["I don't feel like waking up and have a gun.", "Oh well."],
        )
        result = annotate_post(post, tree, default_params(), CFG64)
        assert result.sentence_presence == [(0, 0, 1), (0, 0, 0)]
        assert result.post_presence == (0, 0, 1)
        assert result.predicted is Outcome.INDICATION_OR_NONE

    def test_generous_thresholds_mark_everything(self, tree):
        post = Post(id="p", sentences=["anything at all."])
        params = AnnotationParams(thetas=(-1.0, -1.0, -1.0))
        result = annotate_post(post, tree, params, CFG64)
        assert result.post_presence == (1, 1, 1)
        assert result.predicted is outcome_for_assignment(tree, (1, 1, 1))

    def test_theta_count_must_match_taxonomy(self, tree):
        post = Post(id="p", sentences=["x"])
        with pytest.raises(ValueError, match="expected 3 thetas"):
            annotate_post(post, tree, AnnotationParams(thetas=(0.0,)), CFG64)

    @given(sentences=SENTENCES, extra=st.text(alphabet="abcdef gun", min_size=1, max_size=12))
    def test_adding_a_sentence_never_clears_presence_bits(self, tree, sentences, extra):
        params = AnnotationParams(thetas=(0.1, 0.1, 0.1), frag_size=1)
        base = annotate_post(Post(id="p", sentences=sentences), tree, params, CFG64)
        grown = annotate_post(
            Post(id="p", sentences=sentences + [extra]), tree, params, CFG64
        )
        for before, after in zip(base.post_presence, grown.post_presence):
            assert after >= before

    @pytest.mark.parametrize("frag_size", [2, 3])
    def test_window_preserving_growth_keeps_presence_monotone(self, tree, frag_size):
        sentences = ["life is hard.", "a gun sits there.", "sleep never comes."]
        params = AnnotationParams(thetas=(0.1, 0.1, 0.1), frag_size=frag_size)
        base = annotate_post(Post(id="p", sentences=sentences), tree, params, CFG64)
        grown = annotate_post(
            Post(id="p", sentences=sentences + ["later on."]), tree, params, CFG64
        )
        for before, after in zip(base.post_presence, grown.post_presence):
            assert after >= before

    @given(
        sentences=SENTENCES,
        lo=st.floats(-1.0, 1.0),
        hi=st.floats(-1.0, 1.0),
    )
    def test_raising_a_threshold_never_creates_presence(self, tree, sentences, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        post = Post(id="p", sentences=sentences)
        low = annotate_post(
            post, tree, AnnotationParams(thetas=(lo, lo, lo)), CFG64
        ).post_presence
        high = annotate_post(
            post, tree, AnnotationParams(thetas=(hi, hi, hi)), CFG64
        ).post_presence
        for loose, strict in zip(low, high):
            assert strict <= loose

    @given(
        sentences=WORDY_SENTENCES,
        offsets=st.tuples(*[st.floats(-0.1, 0.1)] * 3),
        frag_size=st.sampled_from(FRAG_SIZES),
    )
    def test_bits_match_direct_cosines_at_every_fragment_size(
        self, tree, sentences, offsets, frag_size
    ):
        queries = [embed_text(c.query_text, CFG64) for c in tree.concepts]

        def cosines(text):
            return [cosine_similarity(embed_text(text, CFG64), q) for q in queries]

        sentence_cosines = [cosines(s) for s in sentences]
        fragment_cosines = [cosines(f) for f in fragments(sentences, frag_size)]
        # one threshold per concept, swept together across [-1, 1]
        for base in theta_lattice(0.1):
            thetas = tuple(min(1.0, max(-1.0, base + d)) for d in offsets)

            def bits(row):
                return tuple(int(c >= t) for c, t in zip(row, thetas))

            params = AnnotationParams(thetas=thetas, frag_size=frag_size)
            result = annotate_post(Post(id="p", sentences=sentences), tree, params, CFG64)
            assert result.sentence_presence == [bits(r) for r in sentence_cosines]
            frag_bits = [bits(r) for r in fragment_cosines]
            assert result.post_presence == tuple(max(col) for col in zip(*frag_bits))

    def test_determinism(self, tree):
        post = Post(id="p", sentences=["a gun and my life.", "wake up."])
        a = annotate_post(post, tree, default_params(), CFG64)
        b = annotate_post(post, tree, default_params(), CFG64)
        assert a == b


class TestApplyAnnotations:
    def test_annotations_land_on_the_returned_posts(self, tree):
        ds = Dataset(
            posts=[
                Post(id="a", sentences=["a gun."], gold=Outcome.INDICATION_OR_NONE),
                Post(id="b", sentences=["calm day."], gold=Outcome.IDEATION_1),
            ]
        )
        out = apply_annotations(ds, tree, default_params(), CFG64)
        assert [p.id for p in out.posts] == ["a", "b"]
        for post in out.posts:
            assert post.sentence_presence is not None
            assert "post_presence" in post.extras
            assert "predicted" in post.extras
        # the input dataset is left untouched
        assert all(p.sentence_presence is None for p in ds.posts)


class TestOutcomeFrequencies:
    def test_raw_frequencies(self):
        ds = Dataset(
            posts=[
                Post(id="a", sentences=["x"], gold=Outcome.INDICATION_OR_NONE),
                Post(id="b", sentences=["x"], gold=Outcome.INDICATION_OR_NONE),
                Post(id="c", sentences=["x"], gold=Outcome.INDICATION_OR_NONE),
                Post(id="d", sentences=["x"], gold=Outcome.IDEATION_2),
            ]
        )
        freqs = outcome_frequencies(ds)
        assert freqs[Outcome.INDICATION_OR_NONE] == 0.75
        assert freqs[Outcome.IDEATION_2] == 0.25
        assert freqs[Outcome.IDEATION_1] == 0.0
        assert freqs[Outcome.BEHAVIOR_OR_ATTEMPT] == 0.0

    def test_unlabeled_posts_rejected(self):
        ds = Dataset(posts=[Post(id="a", sentences=["x"])])
        with pytest.raises(DataFormatError):
            outcome_frequencies(ds)


class TestBernoulliScore:
    def test_match_term_is_log_p_plus_delta(self):
        assert match_log_likelihood(True, 0.5) == math.log(0.5 + DELTA)
        assert match_log_likelihood(False, 0.5) == math.log(0.5 + DELTA)
        assert match_log_likelihood(False, 0.25) == math.log(0.75 + DELTA)

    def test_certain_match_scores_almost_zero(self):
        assert abs(match_log_likelihood(True, 1.0)) < 1e-8

    def test_all_correct_single_class_dataset_scores_almost_zero(self):
        tree = one_concept_tree()
        query = tree.concepts[0].query_text
        ds = Dataset(
            posts=[
                Post(id=f"p{i}", sentences=[query], gold=Outcome.BEHAVIOR_OR_ATTEMPT)
                for i in range(3)
            ]
        )
        value = bernoulli_log_likelihood(
            ds, tree, AnnotationParams(thetas=(0.9,)), CFG64
        )
        assert abs(value) < 1e-8

    def test_doubling_the_dataset_exactly_doubles_the_score(self, tree):
        posts = [
            Post(id="a", sentences=["a gun."], gold=Outcome.INDICATION_OR_NONE),
            Post(id="b", sentences=["wake up."], gold=Outcome.IDEATION_1),
            Post(id="c", sentences=["calm walk."], gold=Outcome.IDEATION_1),
        ]
        single = Dataset(posts=posts)
        doubled = Dataset(posts=posts + [Post(p.id + "x", list(p.sentences), p.gold) for p in posts])
        params = default_params()
        assert bernoulli_log_likelihood(
            doubled, tree, params, CFG64
        ) == pytest.approx(2.0 * bernoulli_log_likelihood(single, tree, params, CFG64), rel=1e-12)

    def test_agrees_with_direct_per_post_computation(self, tree):
        posts = [
            Post(id="a", sentences=["a gun in hand."], gold=Outcome.INDICATION_OR_NONE),
            Post(id="b", sentences=["thinking about ending my life."], gold=Outcome.IDEATION_1),
            Post(id="c", sentences=["nothing here."], gold=Outcome.IDEATION_1),
            Post(id="d", sentences=["wish to be dead."], gold=Outcome.BEHAVIOR_OR_ATTEMPT),
        ]
        ds = Dataset(posts=posts)
        params = default_params()
        freqs = outcome_frequencies(ds)
        expected = sum(
            match_log_likelihood(
                annotate_post(p, tree, params, CFG64).predicted == p.gold,
                freqs[annotate_post(p, tree, params, CFG64).predicted],
            )
            for p in posts
        )
        assert bernoulli_log_likelihood(ds, tree, params, CFG64) == pytest.approx(
            expected, rel=1e-12
        )


class TestThetaLattice:
    def test_step_half(self):
        assert theta_lattice(0.5) == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_step_tenth_has_21_points(self):
        lattice = theta_lattice(0.1)
        assert len(lattice) == 21
        assert lattice[0] == -1.0
        assert lattice[-1] == 1.0
        assert 0.3 in lattice and 0.5 in lattice

    def test_non_dividing_step_rejected(self):
        with pytest.raises(ValueError):
            theta_lattice(0.3)

    def test_non_positive_step_rejected(self):
        for bad in (0.0, -0.5):
            with pytest.raises(ValueError, match="theta_step"):
                theta_lattice(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, bad):
        with pytest.raises(ValueError, match="theta_step must be finite and positive"):
            theta_lattice(bad)


def brute_force_grid_search(
    dataset: Dataset, tree, config: EmbeddingConfig, theta_step: float
) -> tuple[tuple[float, ...], int]:
    """Separately written lattice sweep used as an oracle for grid_search.

    Scores every candidate through the public per-post primitives (no shared
    precomputation with the implementation under test) and applies the
    first-maximum rule over lexicographic enumeration order.
    """
    values = [round(-1.0 + i * theta_step, 12) for i in range(int(round(2.0 / theta_step)) + 1)]
    freqs = outcome_frequencies(dataset)
    best = None
    best_score = -math.inf
    for thetas in itertools.product(values, repeat=tree.num_concepts):
        for frag_size in FRAG_SIZES:
            params = AnnotationParams(thetas=thetas, frag_size=frag_size)
            total = 0.0
            for post in dataset.posts:
                predicted = annotate_post(post, tree, params, config).predicted
                total += match_log_likelihood(predicted == post.gold, freqs[predicted])
            if total > best_score:
                best_score = total
                best = (thetas, frag_size)
    return best


class TestGridSearch:
    def test_matches_brute_force_oracle_on_default_tree(self, tree):
        posts = [
            Post(id="a", sentences=["a gun by the bed."], gold=Outcome.BEHAVIOR_OR_ATTEMPT),
            Post(id="b", sentences=["wish to be dead."], gold=Outcome.INDICATION_OR_NONE),
            Post(id="c", sentences=["thinking about my life."], gold=Outcome.IDEATION_1),
            Post(id="d", sentences=["rain fell late."], gold=Outcome.INDICATION_OR_NONE),
            Post(id="e", sentences=["ending my life.", "a gun."], gold=Outcome.IDEATION_2),
            Post(id="f", sentences=["watched cartoons downstairs."], gold=Outcome.IDEATION_1),
        ]
        ds = Dataset(posts=posts)
        for theta_step, n_values in ((1.0, 3), (0.5, 5)):
            result = grid_search(ds, tree, CFG64, theta_step=theta_step)
            oracle_thetas, oracle_frag = brute_force_grid_search(ds, tree, CFG64, theta_step)
            assert result.params.thetas == oracle_thetas
            assert result.params.frag_size == oracle_frag
            assert result.n_candidates == n_values**3 * 3

    def test_all_ties_return_lexicographically_smallest_params(self):
        tree = one_concept_tree()
        post = Post(
            id="p",
            sentences=[tree.concepts[0].query_text],
            gold=Outcome.BEHAVIOR_OR_ATTEMPT,
        )
        result = grid_search(Dataset(posts=[post]), tree, CFG64, theta_step=0.5)
        assert result.params.thetas == (-1.0,)
        assert result.params.frag_size == 1
        assert result.n_candidates == 5 * 3

    def test_result_reports_its_score(self, tree):
        ds = Dataset(
            posts=[
                Post(id="a", sentences=["a gun."], gold=Outcome.INDICATION_OR_NONE),
                Post(id="b", sentences=["calm."], gold=Outcome.IDEATION_1),
            ]
        )
        result = grid_search(ds, tree, CFG64, theta_step=1.0)
        assert isinstance(result, GridSearchResult)
        direct = bernoulli_log_likelihood(ds, tree, result.params, CFG64)
        assert result.log_likelihood == pytest.approx(direct, rel=1e-12)

    def test_reported_score_is_the_exact_bernoulli_sum(self, tree):
        rows = [
            (["a gun by the bed.", "quiet rain."], Outcome.BEHAVIOR_OR_ATTEMPT),
            (["wish to be dead."], Outcome.IDEATION_2),
            (["thinking about my life.", "a gun."], Outcome.IDEATION_1),
            (["rain fell late."], Outcome.INDICATION_OR_NONE),
            (["ending my life.", "pills.", "calm."], Outcome.IDEATION_2),
            (["still water."], Outcome.INDICATION_OR_NONE),
        ]
        ds = Dataset(
            posts=[Post(id=str(i), sentences=s, gold=g) for i, (s, g) in enumerate(rows)]
        )
        result = grid_search(ds, tree, CFG64, theta_step=0.5)
        assert result.log_likelihood == bernoulli_log_likelihood(ds, tree, result.params, CFG64)

    def test_empty_dataset_rejected(self, tree):
        with pytest.raises(ValueError):
            grid_search(Dataset(posts=[]), tree, CFG64, theta_step=1.0)

    def test_a_lattice_too_large_to_allocate_fails_fast(self, tree):
        # step 1e-12 divides [-1, 1], but its lattice has 2e12 + 1 values per
        # concept: the candidate arrays are refused before any list is built
        ds = Dataset(posts=[Post(id="a", sentences=["a gun."], gold=Outcome.IDEATION_1)])
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"theta_step 1e-12 gives 2.4e\+37 candidates"):
            grid_search(ds, tree, CFG64, theta_step=1e-12)
        assert time.perf_counter() - start < 1.0

    def test_lattice_membership_of_result(self, tree):
        ds = Dataset(
            posts=[
                Post(id="a", sentences=["a gun."], gold=Outcome.BEHAVIOR_OR_ATTEMPT),
                Post(id="b", sentences=["still water."], gold=Outcome.INDICATION_OR_NONE),
            ]
        )
        result = grid_search(ds, tree, CFG64, theta_step=0.5)
        lattice = set(theta_lattice(0.5))
        assert all(t in lattice for t in result.params.thetas)
        assert result.params.frag_size in FRAG_SIZES

    def test_objective_prefers_mismatches_on_a_balanced_split(self, tree):
        # Characterizes the specified objective, flaws included: a mismatch
        # on an outcome of frequency p < 0.5 scores log(1-p) > log(p), so on
        # a balanced four-outcome split the search prefers thresholds that
        # get 60 of 240 posts right over defaults that get all 240 right.
        config = EmbeddingConfig(dimension=64, seed=7)
        dataset = generate_synthetic(default_synthetic_spec(300, 3, tree), tree)
        train_ds, _ = split(dataset, 0.8, 3)
        assert len(train_ds) == 240

        def correct(params):
            return sum(
                annotate_post(p, tree, params, config).predicted is p.gold
                for p in train_ds.posts
            )

        result = grid_search(train_ds, tree, config, theta_step=0.5)
        assert result.params == AnnotationParams(thetas=(-1.0, 0.5, -1.0), frag_size=3)
        assert correct(result.params) == 60
        assert result.log_likelihood == pytest.approx(
            60 * math.log(0.25 + DELTA) + 180 * math.log(0.75 + DELTA), rel=1e-12
        )
        assert round(result.log_likelihood, 2) == -134.96

        defaults = default_params()
        assert correct(defaults) == 240
        default_score = bernoulli_log_likelihood(train_ds, tree, defaults, config)
        assert default_score == pytest.approx(240 * math.log(0.25 + DELTA), rel=1e-12)
        assert round(default_score, 2) == -332.71
        assert default_score < result.log_likelihood


def unique_posts(tag: str, n_posts: int, n_sentences: int) -> list[Post]:
    return [
        Post(
            id=f"{tag}{i}",
            sentences=[f"note {tag} {i} {j} on a gun and my life" for j in range(n_sentences)],
            gold=LAYER_ORDER[i % len(LAYER_ORDER)],
        )
        for i in range(n_posts)
    ]


def test_annotation_keeps_nothing_after_a_call(tree):
    """Memory held after annotating and searching returns to where it began."""
    # warm up one-time allocations (imports, regex and hash state) first
    annotate_post(unique_posts("w", 1, 3)[0], tree, default_params(), CFG64)
    annotated_posts = unique_posts("a", 10, 50)
    searched = Dataset(posts=unique_posts("g", 40, 5))
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        annotated = [annotate_post(p, tree, default_params(), CFG64) for p in annotated_posts]
        result = grid_search(searched, tree, CFG64, theta_step=0.5)
        del annotated, result
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_grid_search_peak_stays_small_on_unique_sentences(tree):
    """While a search runs it keeps a few floats per sentence, not fragment texts.

    A memo of every fragment's joined text and row would hold about 850 bytes
    per sentence here; sentence rows alone hold about 200.
    """
    annotate_post(unique_posts("w", 1, 3)[0], tree, default_params(), CFG64)
    dataset = Dataset(posts=unique_posts("u", 20, 50))
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        grid_search(dataset, tree, CFG64, theta_step=0.5)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 400 * 20 * 50


def _count_embeds(monkeypatch) -> collections.Counter:
    """Count, per text, the embeddings made through `annotation._embedder`."""
    embedded = collections.Counter()
    make = annotation._embedder

    def counting_embedder(config):
        embed = make(config)

        def counting_embed(texts):
            embedded.update(texts)
            return embed(texts)

        return counting_embed

    monkeypatch.setattr(annotation, "_embedder", counting_embedder)
    return embedded


def test_one_call_embeds_each_query_and_sentence_once(tree, monkeypatch):
    """Posts in one call share the query embeddings and repeated sentences' rows."""
    embedded = _count_embeds(monkeypatch)
    posts = [
        Post(id=str(i), sentences=["a gun.", f"calm day {i % 2}."], gold=LAYER_ORDER[i % 4])
        for i in range(6)
    ]
    dataset = Dataset(posts=posts)
    texts = {c.query_text for c in tree.concepts} | {s for p in posts for s in p.sentences}
    params = AnnotationParams(thetas=(0.3, 0.5, 0.3), frag_size=2)
    calls = {
        "apply_annotations": lambda: apply_annotations(dataset, tree, params, CFG64),
        "bernoulli_log_likelihood": lambda: bernoulli_log_likelihood(
            dataset, tree, params, CFG64
        ),
        "grid_search": lambda: grid_search(dataset, tree, CFG64, theta_step=1.0),
    }
    for name, call in calls.items():
        embedded.clear()
        call()
        assert {t: embedded[t] for t in texts} == dict.fromkeys(texts, 1), name


def test_one_call_embeds_a_recurring_fragment_at_most_twice(tree, monkeypatch):
    """A window's row is kept from the first time all its sentences have been met
    before, so a fragment that recurs in every post is embedded once or twice."""
    embedded = _count_embeds(monkeypatch)
    posts = [
        Post(
            id=str(i),
            sentences=["a gun.", "calm day.", f"note {i % 2}."],
            gold=LAYER_ORDER[i % 4],
        )
        for i in range(20)
    ]
    dataset = Dataset(posts=posts)
    # each fragment text recurs in 10 or 20 posts
    joined = {t for p in posts for f in (2, 3) for t in fragments(p.sentences, f)}
    for frag_size in (2, 3):
        params = AnnotationParams(thetas=(0.3, 0.5, 0.3), frag_size=frag_size)
        embedded.clear()
        apply_annotations(dataset, tree, params, CFG64)
        counts = {t: embedded[t] for t in joined if t.count(".") == frag_size}
        assert counts and all(1 <= c <= 2 for c in counts.values()), counts
    embedded.clear()
    grid_search(dataset, tree, CFG64, theta_step=1.0)
    assert all(1 <= embedded[t] <= 2 for t in joined), {t: embedded[t] for t in joined}
