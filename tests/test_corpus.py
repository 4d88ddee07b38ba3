"""Corpus I/O, stratified splitting, and the synthetic generator."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ksat.annotation import AnnotationParams, annotate_post
from ksat.corpus import (
    Dataset,
    Post,
    SyntheticSpec,
    default_synthetic_spec,
    generate_synthetic,
    load_jsonl,
    post_to_obj,
    save_jsonl,
    split,
)
from ksat.embeddings import EmbeddingConfig
from ksat.errors import DataFormatError
from ksat.knowledge import LAYER_ORDER, Outcome


def make_posts(counts: dict[Outcome, int]) -> Dataset:
    posts = []
    i = 0
    for outcome, n in counts.items():
        for _ in range(n):
            posts.append(Post(id=f"p{i}", sentences=[f"text {i}"], gold=outcome))
            i += 1
    return Dataset(posts=posts)


class TestPostValidation:
    def test_empty_id_rejected(self):
        with pytest.raises(DataFormatError):
            Post(id="", sentences=["x"])

    def test_zero_sentences_rejected(self):
        with pytest.raises(DataFormatError):
            Post(id="p", sentences=[])

    def test_presence_length_must_match_sentences(self):
        with pytest.raises(DataFormatError):
            Post(id="p", sentences=["a", "b"], sentence_presence=[(1, 0, 0)])

    def test_presence_bits_must_be_binary(self):
        # an entry that int() would change is refused, not truncated
        for bad in (2, 0.7, 1.5, "1", [1], float("nan")):
            with pytest.raises(DataFormatError, match="post 'p': presence vector"):
                Post(id="p", sentences=["a"], sentence_presence=[(1, bad, 0)])
        for good in (0, 1, True, 1.0, np.int64(1), np.uint8(0), np.bool_(True)):
            post = Post(id="p", sentences=["a"], sentence_presence=[(1, good, 0)])
            assert post.sentence_presence == [(1, int(good), 0)]
            assert type(post.sentence_presence[0][1]) is int


    @pytest.mark.parametrize(
        "sentences", ["hello", ["a", 1], [1, None], ("a",), None], ids=repr
    )
    def test_sentences_must_be_a_list_of_strings(self, sentences):
        # a bare string would be a post of five one-letter sentences, and a
        # non-string sentence would fail only when it is embedded
        with pytest.raises(DataFormatError, match="post 'p': sentences must be a list of strings"):
            Post(id="p", sentences=sentences)

    @pytest.mark.parametrize("gold", ["Ideation1", 1], ids=repr)
    def test_gold_must_be_an_outcome(self, gold):
        # a name would fail only in `compute_metrics`, as `tuple.index` misses
        with pytest.raises(DataFormatError, match="post 'p': gold must be an Outcome"):
            Post(id="p", sentences=["a"], gold=gold)

    @pytest.mark.parametrize("presence", [5, "101", ((1, 0, 0),), [5]], ids=repr)
    def test_presence_must_be_a_list_of_rows(self, presence):
        with pytest.raises(DataFormatError, match="post 'p': "):
            Post(id="p", sentences=["a"], sentence_presence=presence)

    @pytest.mark.parametrize(
        "extras", [[1], None, {"id": "b"}, {"gold": "Ideation1"}, {1: "v"}, {("k",): 1}], ids=repr
    )
    def test_extras_must_be_a_dict_of_unknown_str_keys(self, extras):
        # saved beside the known keys: {"id": "b"} once saved post "a" as
        # post "b", {1: "v"} reloaded as {"1": "v"}, and [1] failed in
        # `post_to_obj` with a bare IndexError
        with pytest.raises(DataFormatError, match="post 'a': extras must be a dict of str keys"):
            Post(id="a", sentences=["x"], extras=extras)


class TestJsonlRoundTrip:
    def test_empty_file_loads_as_empty_dataset(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text("")
        assert len(load_jsonl(path)) == 0

    def test_one_valid_line(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"id":"p1","sentences":["I am fine."],"gold":"Ideation1"}\n')
        ds = load_jsonl(path)
        assert len(ds) == 1
        post = ds.posts[0]
        assert post.id == "p1"
        assert post.sentences == ["I am fine."]
        assert post.gold is Outcome.IDEATION_1

    def test_save_load_content_identity(self, tmp_path):
        ds = Dataset(
            posts=[
                Post(
                    id="a",
                    sentences=["one.", "two."],
                    gold=Outcome.BEHAVIOR_OR_ATTEMPT,
                    sentence_presence=[(1, 0, 0), (0, 1, 1)],
                ),
                Post(id="b", sentences=["three."]),
            ]
        )
        path = tmp_path / "posts.jsonl"
        save_jsonl(ds, path)
        again = load_jsonl(path)
        assert [post_to_obj(p) for p in again.posts] == [post_to_obj(p) for p in ds.posts]

    def test_unknown_keys_round_trip(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        line = {"id": "p1", "sentences": ["x"], "source": "forum", "score": 3}
        path.write_text(json.dumps(line) + "\n")
        ds = load_jsonl(path)
        assert ds.posts[0].extras == {"source": "forum", "score": 3}
        out = tmp_path / "out.jsonl"
        save_jsonl(ds, out)
        assert json.loads(out.read_text()) == line

    def test_save_is_deterministic_bytes(self, tmp_path):
        ds = Dataset(posts=[Post(id="a", sentences=["x"], extras={"b": 1, "a": 2})])
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_jsonl(ds, p1)
        save_jsonl(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_a_post_json_cannot_encode_leaves_the_path_as_it_was(self, tmp_path):
        ds = Dataset(
            posts=[
                Post(id="a", sentences=["x"]),
                Post(id="b", sentences=["y"], extras={"k": {1, 2}}),
            ]
        )
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(DataFormatError, match="post 'b'"):
            save_jsonl(ds, missing)
        assert not missing.exists()
        existing = tmp_path / "existing.jsonl"
        existing.write_bytes(b'{"id": "old", "sentences": ["z"]}\n')
        with pytest.raises(DataFormatError, match="post 'b'"):
            save_jsonl(ds, existing)
        assert existing.read_bytes() == b'{"id": "old", "sentences": ["z"]}\n'

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        for line in (
            "{oops",
            *(
                f'{{"id":"p2","sentences":["y"],"sentence_presence":[[1,{bad},0]]}}'
                for bad in ("0.7", "1.5", '"1"', "[1]", "null")
            ),
            '{"id":"p2","sentences":["y"],"sentence_presence":[5]}',
            '{"id":"p2","sentences":["y"],"sentence_presence":"101"}',
            '["p2", ["y"]]',
            '{"id":2,"sentences":["y"]}',
            '{"id":"p2","sentences":"y"}',
            '{"id":"p2","sentences":["y", 3]}',
            '{"id":"p2","sentences":["y"],"gold":3}',
        ):
            path.write_text('{"id":"p1","sentences":["x"]}\n' + line + "\n")
            with pytest.raises(DataFormatError, match=":2:"):
                load_jsonl(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"id":"p2","sentences":["y"],"score":1%s}',
            '{"id":"p2","sentences":["y"],"sentence_presence":[[1%s,0,0]]}',
        ],
        ids=["extra", "presence"],
    )
    def test_an_integer_past_the_digit_limit_reports_line_number(self, tmp_path, line):
        # Python refuses to parse an int of more than 4,300 digits with a
        # plain ValueError, not a JSONDecodeError
        path = tmp_path / "posts.jsonl"
        path.write_text('{"id":"p1","sentences":["x"]}\n' + line % ("0" * 5000) + "\n")
        with pytest.raises(DataFormatError, match=":2: invalid JSON"):
            load_jsonl(path)

    def test_a_line_that_is_not_utf8_reports_line_number(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_bytes(b'{"id":"p1","sentences":["x"]}\n{"id":"p2","sentences":["caf\xff"]}\n')
        with pytest.raises(DataFormatError, match=":2: not UTF-8 text"):
            load_jsonl(path)

    def test_lines_end_as_in_text_mode(self, tmp_path):
        # a lone \r ends a line, as universal newlines read it
        path = tmp_path / "posts.jsonl"
        path.write_bytes(b'{"id":"p1","sentences":["x"]}\r{"id":"p2","sentences":["y"]}\r\n\n{oops\n')
        with pytest.raises(DataFormatError, match=":4: invalid JSON"):
            load_jsonl(path)
        path.write_bytes(b'{"id":"p1","sentences":["x"]}\r{"id":"p2","sentences":["y"]}\r\n')
        assert [p.id for p in load_jsonl(path).posts] == ["p1", "p2"]

    def test_duplicate_id_reports_line_number(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"id":"p1","sentences":["x"]}\n{"id":"p1","sentences":["y"]}\n')
        with pytest.raises(DataFormatError, match=":2:.*duplicate"):
            load_jsonl(path)

    def test_missing_required_key_reports_line_number(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"id":"p1"}\n')
        with pytest.raises(DataFormatError, match=":1:"):
            load_jsonl(path)

    def test_unknown_gold_outcome_rejected(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"id":"p1","sentences":["x"],"gold":"Severe"}\n')
        with pytest.raises(DataFormatError, match="unknown outcome"):
            load_jsonl(path)


class TestSplit:
    def test_eighty_twenty_proportions_within_one_post(self):
        ds = make_posts({o: 25 for o in LAYER_ORDER})
        train, test = split(ds, 0.8, seed=0)
        assert len(train) == 80 and len(test) == 20
        for outcome in LAYER_ORDER:
            assert abs(train.outcome_counts[outcome] - 20) <= 1
            assert abs(test.outcome_counts[outcome] - 5) <= 1

    def test_same_seed_same_split(self):
        ds = make_posts({o: 10 for o in LAYER_ORDER})
        a_train, a_test = split(ds, 0.7, seed=5)
        b_train, b_test = split(ds, 0.7, seed=5)
        assert [p.id for p in a_train.posts] == [p.id for p in b_train.posts]
        assert [p.id for p in a_test.posts] == [p.id for p in b_test.posts]

    def test_partition_is_disjoint_and_exhaustive(self):
        ds = make_posts({o: 9 for o in LAYER_ORDER})
        train, test = split(ds, 0.6, seed=3)
        train_ids = {p.id for p in train.posts}
        test_ids = {p.id for p in test.posts}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {p.id for p in ds.posts}

    @given(
        frac=st.floats(0.1, 0.9),
        seed=st.integers(0, 1000),
        counts=st.lists(st.integers(2, 12), min_size=4, max_size=4),
    )
    def test_split_properties_hold_across_settings(self, frac, seed, counts):
        ds = make_posts(dict(zip(LAYER_ORDER, counts)))
        train, test = split(ds, frac, seed)
        assert len(train) + len(test) == len(ds)
        for outcome, n in zip(LAYER_ORDER, counts):
            in_train = train.outcome_counts[outcome]
            assert 1 <= in_train <= n - 1
            assert abs(in_train - frac * n) <= 1.0

    def test_class_with_one_member_rejected(self):
        ds = make_posts({Outcome.INDICATION_OR_NONE: 5, Outcome.IDEATION_1: 1})
        with pytest.raises(DataFormatError, match="Ideation1"):
            split(ds, 0.8, seed=0)

    def test_unlabeled_posts_rejected(self):
        ds = Dataset(posts=[Post(id="p", sentences=["x"]), Post(id="q", sentences=["y"])])
        with pytest.raises(DataFormatError, match="gold"):
            split(ds, 0.5, seed=0)

    def test_fraction_bounds_enforced(self):
        ds = make_posts({o: 4 for o in LAYER_ORDER})
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split(ds, bad, seed=0)


class TestSyntheticGenerator:
    def test_four_posts_cover_each_outcome_once(self, tree):
        ds = generate_synthetic(default_synthetic_spec(n_posts=4, seed=0), tree)
        assert Counter(p.gold for p in ds.posts) == Counter(
            {o: 1 for o in LAYER_ORDER}
        )

    def test_round_robin_outcome_order(self, tree):
        ds = generate_synthetic(default_synthetic_spec(n_posts=8, seed=1), tree)
        golds = [p.gold for p in ds.posts]
        assert golds == list(LAYER_ORDER) + list(LAYER_ORDER)

    def test_same_spec_twice_is_identical(self, tree):
        a = generate_synthetic(default_synthetic_spec(n_posts=20, seed=9), tree)
        b = generate_synthetic(default_synthetic_spec(n_posts=20, seed=9), tree)
        assert [post_to_obj(p) for p in a.posts] == [post_to_obj(p) for p in b.posts]

    def test_different_seeds_differ(self, tree):
        a = generate_synthetic(default_synthetic_spec(n_posts=20, seed=0), tree)
        b = generate_synthetic(default_synthetic_spec(n_posts=20, seed=1), tree)
        assert [post_to_obj(p) for p in a.posts] != [post_to_obj(p) for p in b.posts]

    @given(seed=st.integers(0, 200), n=st.integers(1, 24))
    def test_triggers_appear_iff_concept_is_true(self, tree, seed, n):
        spec = default_synthetic_spec(n_posts=n, seed=seed)
        ds = generate_synthetic(spec, tree)
        for post in ds.posts:
            assignment = tuple(int(ch) for ch in post.extras["planted"])
            # the planted assignment matches the recorded gold label
            assert post.gold is tree.outcome_map[assignment]
            for cid, bank in spec.keyword_bank.items():
                planted = any(s in bank for s in post.sentences)
                assert planted == bool(assignment[cid])
            # per-sentence presence bits OR up to exactly the assignment
            k = tree.num_concepts
            combined = tuple(
                max(row[j] for row in post.sentence_presence) for j in range(k)
            )
            assert combined == assignment

    def test_annotation_recovers_planted_bits_on_severe_post(self, tree):
        ds = generate_synthetic(default_synthetic_spec(n_posts=64, seed=4), tree)
        config = EmbeddingConfig(dimension=64, seed=0)
        params = AnnotationParams(thetas=(0.2, 0.2, 0.2), frag_size=1)
        severe = [p for p in ds.posts if p.gold is Outcome.BEHAVIOR_OR_ATTEMPT]
        assert severe
        for post in severe:
            annotated = annotate_post(post, tree, params, config)
            planted = tuple(int(ch) for ch in post.extras["planted"])
            assert annotated.post_presence == planted
            assert annotated.predicted is Outcome.BEHAVIOR_OR_ATTEMPT

    def test_bank_must_cover_every_concept(self, tree):
        spec = SyntheticSpec(
            n_posts=4, seed=0, keyword_bank={0: ["a"]}, noise_phrases=["calm walk"]
        )
        with pytest.raises(ValueError, match="missing concept id"):
            generate_synthetic(spec, tree)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_posts=-1, seed=0, noise_phrases=["x"])
        with pytest.raises(ValueError):
            SyntheticSpec(n_posts=1, seed=0, sentences_per_post=(0, 2), noise_phrases=["x"])
        with pytest.raises(ValueError):
            SyntheticSpec(n_posts=1, seed=0, sentences_per_post=(3, 2), noise_phrases=["x"])
        with pytest.raises(ValueError):
            SyntheticSpec(n_posts=1, seed=0, noise_phrases=[])
        with pytest.raises(ValueError):
            SyntheticSpec(n_posts=1, seed=0, keyword_bank={0: []}, noise_phrases=["x"])
