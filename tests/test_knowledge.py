"""Taxonomy model: outcome mapping, context restriction, hamming metric."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ksat.errors import DataFormatError
from ksat.knowledge import (
    LAYER_ORDER,
    N_OUTCOMES,
    Concept,
    KnowledgeTree,
    Outcome,
    canonical_hash,
    connection_vector,
    default_tree,
    hamming_distance,
    load_taxonomy,
    outcome_for_assignment,
    outcome_from_name,
    tree_from_dict,
    tree_to_dict,
)

BITS3 = list(itertools.product((0, 1), repeat=3))


def single_concept_tree(constant: Outcome = Outcome.INDICATION_OR_NONE) -> KnowledgeTree:
    return KnowledgeTree(
        concepts=(Concept(id=0, name="only", query_text="only concept"),),
        outcome_map={(0,): constant, (1,): constant},
        layer_contexts={o: (0,) for o in LAYER_ORDER},
    )


class TestOutcomeEnum:
    def test_exactly_four_members_in_fixed_order(self):
        assert N_OUTCOMES == 4
        assert [o.value for o in LAYER_ORDER] == [
            "IndicationOrNone",
            "Ideation1",
            "Ideation2",
            "BehaviorOrAttempt",
        ]
        assert list(Outcome) == list(LAYER_ORDER)

    def test_outcome_from_name_round_trips(self):
        for o in LAYER_ORDER:
            assert outcome_from_name(o.value) is o

    def test_unknown_outcome_name_rejected(self):
        with pytest.raises(DataFormatError):
            outcome_from_name("Ideation3")


class TestDefaultTree:
    def test_three_concepts_with_contiguous_ids(self, tree):
        assert tree.num_concepts == 3
        assert [c.id for c in tree.concepts] == [0, 1, 2]
        assert all(c.query_text for c in tree.concepts)

    def test_full_truth_assignment_maps_to_most_severe_outcome(self, tree):
        assert outcome_for_assignment(tree, (1, 1, 1)) is Outcome.BEHAVIOR_OR_ATTEMPT

    def test_empty_truth_assignment_maps_to_least_severe_outcome(self, tree):
        assert outcome_for_assignment(tree, (0, 0, 0)) is Outcome.INDICATION_OR_NONE

    def test_every_assignment_resolves(self, tree):
        outcomes = {outcome_for_assignment(tree, bits) for bits in BITS3}
        assert outcomes == set(LAYER_ORDER)

    def test_layer_contexts_grow_along_the_tree_path(self, tree):
        assert tree.layer_contexts[Outcome.INDICATION_OR_NONE] == (0,)
        assert tree.layer_contexts[Outcome.IDEATION_1] == (0, 1)
        assert tree.layer_contexts[Outcome.IDEATION_2] == (0, 1, 2)
        assert tree.layer_contexts[Outcome.BEHAVIOR_OR_ATTEMPT] == (0, 1, 2)

    def test_cached_instance_is_reused(self):
        assert default_tree() is default_tree()


class TestConnectionVector:
    def test_full_context_is_identity(self):
        assert connection_vector((1, 0, 0), (0, 1, 2)) == (1, 0, 0)
        assert connection_vector((1, 1, 1), (0, 1, 2)) == (1, 1, 1)

    def test_restriction_to_single_concept(self):
        assert connection_vector((1, 0, 1), (0,)) == (1,)
        assert connection_vector((0, 0, 1), (2,)) == (1,)

    def test_restriction_preserves_id_order(self):
        assert connection_vector((1, 0, 1), (2, 0)) == (1, 1)

    def test_out_of_range_concept_id_rejected(self):
        with pytest.raises(ValueError):
            connection_vector((1, 0, 0), (3,))
        with pytest.raises(ValueError):
            connection_vector((1, 0, 0), (-1,))

    @pytest.mark.parametrize("bad", [0.9, 1.0, True, "0", np.int64(0), None], ids=repr)
    def test_a_context_id_that_is_not_an_int_rejected(self, bad):
        # int() would read 0.9 as 0 and True as 1
        with pytest.raises(ValueError, match="context id must be an int"):
            connection_vector((1, 0, 1), (bad, 2))

    def test_non_binary_presence_rejected(self):
        # an entry that int() would change is refused, not truncated
        for bad in (2, 0.7, 1.5, "1", [1], None, float("inf")):
            with pytest.raises(ValueError, match="presence vector"):
                connection_vector((bad, 0, 0), (0,))

    @pytest.mark.parametrize(
        "bit", [0, 1, True, False, 1.0, 0.0, np.int64(1), np.uint8(0), np.bool_(True)]
    )
    def test_numeric_bits_come_back_as_ints(self, bit):
        got = connection_vector((bit, 1, 0), (0, 2))
        assert got == (int(bit), 0) and type(got[0]) is int


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance((1, 0, 0), (1, 0, 0)) == 0

    def test_two_differing_positions(self):
        assert hamming_distance((1, 0, 0), (1, 1, 1)) == 2

    def test_all_differing_positions(self):
        assert hamming_distance((0, 0, 0), (1, 1, 1)) == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_distance((1, 0), (1, 0, 0))

    @pytest.mark.parametrize(
        "a, b",
        [
            ((), (0,)),
            ([1, 0], [1, 0, 0]),
            ((1, 0), [1, 0, 0]),
            (np.array([1, 0]), np.array([1, 0, 0])),
            (np.array([1, 0, 0]), (1, 0)),
        ],
    )
    def test_length_mismatch_rejected_for_every_sequence_kind(self, a, b):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="equal lengths"):
                hamming_distance(x, y)

    def test_equal_tuples_give_the_int_zero(self):
        for bits in [(), (1,), (0, 1, 1), (True, False), (np.int64(1), np.int8(0))]:
            got = hamming_distance(bits, tuple(bits))
            assert type(got) is int and got == 0

    def test_a_tuple_and_a_list_of_the_same_bits_give_zero(self):
        for a, b in [((1, 0, 1), [1, 0, 1]), ([0, 1], (0, 1))]:
            got = hamming_distance(a, b)
            assert type(got) is int and got == 0

    def test_arrays_and_tuples_mix(self):
        # an array compared with `==` gives an array, not a truth value
        a = np.array([1, 0, 1])
        for b, expected in [(np.array([1, 0, 1]), 0), ((1, 1, 1), 1), (a, 0)]:
            for x, y in ((a, b), (b, a)):
                got = hamming_distance(x, y)
                assert type(got) is int and got == expected

    @pytest.mark.parametrize("kind", [int, bool, np.int64, np.uint8, np.bool_])
    def test_identical_equal_and_unequal_tuples_count_as_ints(self, kind):
        a, same, other = (tuple(map(kind, bits)) for bits in ((1, 0, 1, 1), (1, 0, 1, 1), (0, 0, 1, 0)))
        for x, y, expected in ((a, a, 0), (a, same, 0), (a, other, 2), (other, a, 2)):
            got = hamming_distance(x, y)
            assert type(got) is int and got == expected

    def test_one_tuple_with_a_nan_twice_gives_zero_as_equal_tuples_do(self):
        # a tuple equals itself entry by entry, NaN included; two NaNs differ
        nan = (float("nan"), 1)
        assert nan == nan and hamming_distance(nan, nan) == 0
        assert hamming_distance(nan, (float("nan"), 1)) == 1

    @given(
        st.integers(0, 12).flatmap(
            lambda k: st.tuples(*[st.lists(st.integers(0, 1), min_size=k, max_size=k)] * 2)
        ),
        st.sampled_from(
            [tuple, list, lambda bits: [bool(x) for x in bits], np.array]
        ),
    )
    def test_counts_differing_bits_in_any_bit_container(self, pair, as_container):
        a, b = pair
        expected = sum(int(x) != int(y) for x, y in zip(a, b))
        got = hamming_distance(as_container(a), as_container(b))
        assert type(got) is int and got == expected

    @given(
        st.lists(st.integers(0, 1), max_size=8),
        st.lists(st.integers(0, 1), min_size=1, max_size=4),
        st.booleans(),
        st.sampled_from([tuple, list, np.array]),
    )
    def test_unequal_lengths_always_rejected(self, a, extra, longer_first, as_container):
        b = a + extra
        if longer_first:
            a, b = b, a
        with pytest.raises(ValueError):
            hamming_distance(as_container(a), as_container(b))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_metric_axioms_exhaustively(self, k):
        vectors = list(itertools.product((0, 1), repeat=k))
        for a in vectors:
            assert hamming_distance(a, a) == 0
            for b in vectors:
                d_ab = hamming_distance(a, b)
                assert d_ab == hamming_distance(b, a)
                assert (d_ab == 0) == (a == b)
                for c in vectors:
                    assert hamming_distance(a, c) <= d_ab + hamming_distance(b, c)


class TestTreeValidation:
    def test_both_mappings_may_be_key_value_pairs(self, tree):
        pairs = KnowledgeTree(
            tree.concepts, list(tree.outcome_map.items()), list(tree.layer_contexts.items())
        )
        assert pairs.outcome_map == tree.outcome_map
        assert pairs.layer_contexts == tree.layer_contexts

    @pytest.mark.parametrize("name", ["outcome_map", "layer_contexts"])
    @pytest.mark.parametrize("value", [5, ["abc"], [([0, 0, 0], Outcome.IDEATION_1)]], ids=repr)
    def test_a_mapping_of_the_wrong_type_rejected(self, tree, name, value):
        fields = {"outcome_map": tree.outcome_map, "layer_contexts": tree.layer_contexts}
        fields[name] = value
        with pytest.raises(DataFormatError, match=f"{name} must be a mapping"):
            KnowledgeTree(tree.concepts, **fields)

    def test_partial_outcome_map_rejected(self):
        mapping = {bits: Outcome.INDICATION_OR_NONE for bits in BITS3[:-1]}
        with pytest.raises(DataFormatError, match="total"):
            KnowledgeTree(
                concepts=tuple(Concept(i, f"c{i}", f"q{i}") for i in range(3)),
                outcome_map=mapping,
                layer_contexts={o: (0,) for o in LAYER_ORDER},
            )

    def test_missing_layer_context_rejected(self):
        mapping = {bits: Outcome.INDICATION_OR_NONE for bits in BITS3}
        contexts = {o: (0,) for o in LAYER_ORDER}
        del contexts[Outcome.IDEATION_2]
        with pytest.raises(DataFormatError, match="Ideation2"):
            KnowledgeTree(
                concepts=tuple(Concept(i, f"c{i}", f"q{i}") for i in range(3)),
                outcome_map=mapping,
                layer_contexts=contexts,
            )

    def test_context_referencing_unknown_concept_rejected(self):
        mapping = {bits: Outcome.INDICATION_OR_NONE for bits in BITS3}
        contexts = {o: (0,) for o in LAYER_ORDER}
        contexts[Outcome.IDEATION_1] = (0, 7)
        with pytest.raises(DataFormatError, match="unknown concept"):
            KnowledgeTree(
                concepts=tuple(Concept(i, f"c{i}", f"q{i}") for i in range(3)),
                outcome_map=mapping,
                layer_contexts=contexts,
            )

    def test_contexts_are_stored_sorted_in_the_trees_own_dict(self):
        mapping = {bits: Outcome.INDICATION_OR_NONE for bits in BITS3}
        contexts = {o: [2, 0] for o in LAYER_ORDER}
        tree = KnowledgeTree(
            concepts=tuple(Concept(i, f"c{i}", f"q{i}") for i in range(3)),
            outcome_map=mapping,
            layer_contexts=contexts,
        )
        assert all(tree.layer_contexts[o] == (0, 2) for o in LAYER_ORDER)
        assert contexts == {o: [2, 0] for o in LAYER_ORDER}

    def test_non_contiguous_concept_ids_rejected(self):
        with pytest.raises(DataFormatError, match="0..K-1"):
            KnowledgeTree(
                concepts=(Concept(1, "c1", "q1"),),
                outcome_map={(0,): Outcome.INDICATION_OR_NONE, (1,): Outcome.IDEATION_1},
                layer_contexts={o: (1,) for o in LAYER_ORDER},
            )


    def test_numeric_keys_are_stored_as_int_tuples_in_the_trees_own_dict(self, tree):
        # float keys equal the int ones, but `tree_to_dict` would write
        # "0.00.01.0" for them
        given_map = {tuple(map(float, bits)): o for bits, o in tree.outcome_map.items()}
        floats = KnowledgeTree(tree.concepts, given_map, tree.layer_contexts)
        assert all(type(b) is int for bits in floats.outcome_map for b in bits)
        assert all(type(b) is float for bits in given_map for b in bits)
        again = tree_from_dict(tree_to_dict(floats))
        assert again.outcome_map == tree.outcome_map
        assert canonical_hash(floats) == canonical_hash(again) == canonical_hash(default_tree())

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ((0.5, 0, 1), Outcome.IDEATION_1, "outcome_map key must hold only 0/1 numbers"),
            ("001", Outcome.IDEATION_1, "outcome_map key must hold only 0/1 numbers"),
            (5, Outcome.IDEATION_1, "outcome_map key must hold only 0/1 numbers"),
            ((0, 0, 1), "Ideation1", r"outcome_map\[\(0, 0, 1\)\] must be an Outcome"),
        ],
        ids=["key-half", "key-string", "key-int", "value-name"],
    )
    def test_an_outcome_map_entry_of_the_wrong_type_rejected(self, tree, key, value, match):
        outcome_map = {bits: o for bits, o in tree.outcome_map.items() if bits != (0, 0, 1)}
        outcome_map[key] = value
        with pytest.raises(DataFormatError, match=match):
            KnowledgeTree(tree.concepts, outcome_map, tree.layer_contexts)


class TestSingleConceptTree:
    def test_constant_map_returns_the_constant(self):
        tree = single_concept_tree(Outcome.IDEATION_2)
        assert outcome_for_assignment(tree, (0,)) is Outcome.IDEATION_2
        assert outcome_for_assignment(tree, (1,)) is Outcome.IDEATION_2

    def test_every_layer_context_is_the_only_concept(self):
        tree = single_concept_tree()
        for o in LAYER_ORDER:
            assert tree.layer_contexts[o] == (0,)

    def test_assignment_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            outcome_for_assignment(single_concept_tree(), (0, 1))


class TestSerialization:
    def test_dict_round_trip_preserves_everything(self, tree):
        again = tree_from_dict(tree_to_dict(tree))
        assert again.concepts == tree.concepts
        assert again.outcome_map == tree.outcome_map
        assert again.layer_contexts == tree.layer_contexts
        assert canonical_hash(again) == canonical_hash(tree)

    def test_load_taxonomy_from_file(self, tree, tmp_path):
        path = tmp_path / "tax.json"
        path.write_text(json.dumps(tree_to_dict(tree)))
        assert canonical_hash(load_taxonomy(path)) == canonical_hash(tree)

    def test_invalid_json_rejected_with_path(self, tmp_path):
        path = tmp_path / "tax.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError, match="tax.json"):
            load_taxonomy(path)

    def test_missing_key_rejected(self, tree):
        data = tree_to_dict(tree)
        del data["outcome_map"]
        with pytest.raises(DataFormatError, match="malformed"):
            tree_from_dict(data)

    @pytest.mark.parametrize(
        "keys, value, match",
        [
            (("concepts", 1, "id"), 1.7, "concept id must be an int, got 1.7"),
            (("concepts", 1, "id"), True, "concept id must be an int, got True"),
            (("concepts", 1, "name"), 5, "concept 1: name and query_text must be strs"),
            (("concepts", 0, "query_text"), None, "concept 0: name and query_text"),
            (("layer_contexts", "Ideation1"), [0, 0.5], "must be an int, got 0.5"),
            (("layer_contexts", "Ideation1"), [True], "must be an int, got True"),
            (("layer_contexts", "Ideation1"), [0, 0], "nonempty set"),
            (("layer_contexts", "Ideation1"), [], "nonempty set"),
            (("layer_contexts", "Ideation1"), 1, "malformed"),
        ],
        ids=["id-float", "id-bool", "name-int", "query-null", "context-float",
             "context-bool", "context-repeated", "context-empty", "context-int"],
    )
    def test_a_field_of_the_wrong_json_type_rejected(self, tree, keys, value, match):
        # taxonomy ids and contexts must be JSON integers: none is truncated
        data = tree_to_dict(tree)
        entry = data
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        with pytest.raises(DataFormatError, match=match):
            tree_from_dict(data)

    @pytest.mark.parametrize("key", ["01x", "012", " 01", "1.0"])
    def test_an_outcome_map_key_that_is_no_bitstring_rejected(self, tree, key):
        data = tree_to_dict(tree)
        data["outcome_map"][key] = data["outcome_map"].pop("010")
        with pytest.raises(DataFormatError, match="is not a bitstring"):
            tree_from_dict(data)

    @pytest.mark.parametrize("name", ["outcome_map", "layer_contexts"])
    def test_a_list_where_an_object_belongs_rejected(self, tree, name):
        data = tree_to_dict(tree)
        data[name] = list(data[name].values())
        with pytest.raises(DataFormatError, match=f"{name} must be a JSON object"):
            tree_from_dict(data)

    @pytest.mark.parametrize(
        "where",
        [("concepts", 0, "id"), ("layer_contexts", "Ideation1", 0)],
        ids=["concept-id", "context-id"],
    )
    def test_an_integer_past_the_digit_limit_names_the_file(self, tree, tmp_path, where):
        # Python refuses to parse an int of more than 4,300 digits with a
        # plain ValueError, not a JSONDecodeError
        data = tree_to_dict(tree)
        entry = data
        for key in where[:-1]:
            entry = entry[key]
        entry[where[-1]] = "BIG"
        path = tmp_path / "tax.json"
        path.write_text(json.dumps(data).replace('"BIG"', "1" + "0" * 5000))
        with pytest.raises(DataFormatError, match="tax.json: invalid JSON"):
            load_taxonomy(path)

    def test_a_schema_problem_names_the_file(self, tree, tmp_path):
        data = tree_to_dict(tree)
        data["concepts"][0]["id"] = 0.0
        path = tmp_path / "tax.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DataFormatError, match="tax.json: concept id"):
            load_taxonomy(path)

    @pytest.mark.parametrize("outcomes", [[1, 0, 2, 3], [0, 1, 2]])
    def test_outcomes_out_of_fixed_order_rejected(self, tree, outcomes):
        data = tree_to_dict(tree)
        data["outcomes"] = [LAYER_ORDER[i].value for i in outcomes]
        with pytest.raises(DataFormatError, match="fixed order"):
            tree_from_dict(data)

    def test_canonical_hash_tracks_content(self, tree):
        data = tree_to_dict(tree)
        data["concepts"][0]["query_text"] = "something else"
        assert canonical_hash(tree_from_dict(data)) != canonical_hash(tree)

    @given(st.permutations(list(BITS3)))
    def test_canonical_hash_ignores_map_insertion_order(self, tree, order):
        data = tree_to_dict(tree)
        reordered = dict(data)
        reordered["outcome_map"] = {
            "".join(map(str, bits)): data["outcome_map"]["".join(map(str, bits))]
            for bits in order
        }
        assert canonical_hash(tree_from_dict(reordered)) == canonical_hash(tree)
