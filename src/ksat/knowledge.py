"""Concept taxonomy, outcome tree, and graph-context primitives.

A knowledge tree orders K binary concepts, maps every truth assignment over
them to one of four severity outcomes, and names the concept subset (the tree
path, called a layer context) that each outcome's model layer encodes.
Taxonomies are data: the default ships as a JSON file inside the package and
domain-specific trees load through the same schema.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
from dataclasses import dataclass
from importlib import resources
from operator import index, ne
from typing import Sequence

from .errors import DataFormatError, whole


class Outcome(enum.Enum):
    """The four severity outcomes, in fixed display/layer order."""

    INDICATION_OR_NONE = "IndicationOrNone"
    IDEATION_1 = "Ideation1"
    IDEATION_2 = "Ideation2"
    BEHAVIOR_OR_ATTEMPT = "BehaviorOrAttempt"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.value


LAYER_ORDER: tuple[Outcome, ...] = (
    Outcome.INDICATION_OR_NONE,
    Outcome.IDEATION_1,
    Outcome.IDEATION_2,
    Outcome.BEHAVIOR_OR_ATTEMPT,
)

N_OUTCOMES = len(LAYER_ORDER)


def outcome_from_name(name: str) -> Outcome:
    try:
        return Outcome(name)
    except ValueError as exc:
        known = ", ".join(o.value for o in LAYER_ORDER)
        raise DataFormatError(f"unknown outcome {name!r}; expected one of {known}") from exc


@dataclass(frozen=True)
class Concept:
    """One taxonomy node: stable integer id, short name, free-text query."""

    id: int
    name: str
    query_text: str

    def __post_init__(self) -> None:
        whole(self.id, "concept id", DataFormatError)
        if not (isinstance(self.name, str) and isinstance(self.query_text, str)):
            raise DataFormatError(f"concept {self.id}: name and query_text must be strs")


_BITS = frozenset((0, 1))


def _check_bits(bits: Sequence[int], what: str) -> tuple[int, ...]:
    """`bits` as a tuple of ints, if every entry is a number (a Python or
    NumPy bool, integer or float) equal to 0 or 1; else ValueError naming
    `what`. The one check of presence bits and assignments: an entry that
    `int()` changes, such as 0.7, 1.5 or "1", is refused, not truncated."""
    try:
        out = tuple(map(int, bits))
        if out == tuple(bits) and _BITS.issuperset(out):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must hold only 0/1 numbers, got {bits!r}")


def _as_dict(mapping, what: str) -> dict:
    """A new dict of `mapping`, or of its (key, value) pairs; else
    DataFormatError naming `what`. The caller's object stays as given."""
    try:
        return dict(mapping)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{what} must be a mapping or (key, value) pairs: {exc}") from exc


@dataclass
class KnowledgeTree:
    """K concepts, a total assignment->outcome map and sorted per-layer contexts."""

    concepts: tuple[Concept, ...]
    outcome_map: dict[tuple[int, ...], Outcome]
    layer_contexts: dict[Outcome, tuple[int, ...]]

    def __post_init__(self) -> None:
        if not self.concepts:
            raise DataFormatError("taxonomy needs at least one concept")
        ids = [c.id for c in self.concepts]
        if ids != list(range(len(ids))):
            raise DataFormatError(f"concept ids must be 0..K-1 in order, got {ids}")
        k = len(self.concepts)
        outcome_map = {}  # the caller's stays as given
        for bits, outcome in _as_dict(self.outcome_map, "outcome_map").items():
            try:
                key = _check_bits(bits, "outcome_map key")
            except ValueError as exc:
                raise DataFormatError(str(exc)) from exc
            if not isinstance(outcome, Outcome):
                raise DataFormatError(f"outcome_map[{bits!r}] must be an Outcome, got {outcome!r}")
            outcome_map[key] = outcome
        self.outcome_map = outcome_map
        expected = set(itertools.product((0, 1), repeat=k))
        got = set(outcome_map)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise DataFormatError(
                f"outcome_map must be total over all {2 ** k} assignments "
                f"(missing {missing[:4]}, unexpected {extra[:4]})"
            )
        self.layer_contexts = _as_dict(self.layer_contexts, "layer_contexts")
        for outcome in LAYER_ORDER:
            if outcome not in self.layer_contexts:
                raise DataFormatError(f"layer_contexts missing {outcome.value}")
            what = f"layer context id for {outcome.value}"
            ctx = tuple(sorted(whole(i, what, DataFormatError) for i in self.layer_contexts[outcome]))
            if any(i < 0 or i >= k for i in ctx):
                raise DataFormatError(
                    f"layer context for {outcome.value} references unknown concept ids: {ctx}"
                )
            if len(set(ctx)) != len(ctx) or not ctx:
                raise DataFormatError(
                    f"layer context for {outcome.value} must be a nonempty set of ids"
                )
            self.layer_contexts[outcome] = ctx

    @property
    def num_concepts(self) -> int:
        return len(self.concepts)


def connection_vector(presence: Sequence[int], context: Sequence[int]) -> tuple[int, ...]:
    """Restrict a per-sentence presence vector to a context's concept ids.

    The restriction preserves ascending concept-id order, so two vectors
    restricted by the same context stay aligned component-by-component.
    """
    bits = _check_bits(presence, "presence vector")
    for i in context:
        if not 0 <= whole(i, "context id") < len(bits):
            raise ValueError(f"context id {i} out of range for K={len(bits)}")
    return tuple(bits[i] for i in sorted(context))


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Count of positions where two equal-length bit vectors differ.

    The entries must be 0/1 bits (ints, bools or NumPy integers); they are
    compared as they are, so ``1.5`` and ``1`` or ``"1"`` and ``1`` differ.
    Two equal tuples, the connection vectors' type, return 0 before the
    length check, which they always pass: one tuple object twice
    (`model._groups` passes each group's vectors as one object) before the
    element compare, two equal ones after it. Other pairs, arrays among
    them, take the length check and the count, which `index` returns as an
    `int` without the type call `int()` makes.
    """
    if a.__class__ is tuple and b.__class__ is tuple and (a is b or a == b):
        return 0
    if len(a) != len(b):
        raise ValueError(f"hamming distance needs equal lengths, got {len(a)} and {len(b)}")
    return index(sum(map(ne, a, b)))


def outcome_for_assignment(tree: KnowledgeTree, assignment: Sequence[int]) -> Outcome:
    """Tree inference: map a full K-bit truth assignment to its outcome."""
    bits = _check_bits(assignment, "assignment")
    if len(bits) != tree.num_concepts:
        raise ValueError(
            f"assignment length {len(bits)} != number of concepts {tree.num_concepts}"
        )
    return tree.outcome_map[bits]


def tree_to_dict(tree: KnowledgeTree) -> dict:
    return {
        "concepts": [
            {"id": c.id, "name": c.name, "query_text": c.query_text} for c in tree.concepts
        ],
        "outcomes": [o.value for o in LAYER_ORDER],
        "outcome_map": {
            "".join(str(b) for b in bits): outcome.value
            for bits, outcome in sorted(tree.outcome_map.items())
        },
        "layer_contexts": {
            o.value: list(tree.layer_contexts[o]) for o in LAYER_ORDER
        },
    }


def tree_from_dict(data: dict) -> KnowledgeTree:
    try:
        concepts = tuple(
            Concept(id=c["id"], name=c["name"], query_text=c["query_text"])
            for c in data["concepts"]
        )
        if tuple(outcome_from_name(n) for n in data["outcomes"]) != LAYER_ORDER:
            raise DataFormatError("layer order must be the four outcomes in fixed order")
        for name in ("outcome_map", "layer_contexts"):
            if not isinstance(data[name], dict):
                raise DataFormatError(f"{name} must be a JSON object")
        outcome_map = {}
        for key, name in data["outcome_map"].items():
            if not set(key) <= {"0", "1"}:
                raise DataFormatError(f"outcome_map key {key!r} is not a bitstring")
            outcome_map[tuple(map(int, key))] = outcome_from_name(name)
        return KnowledgeTree(
            concepts=concepts,
            outcome_map=outcome_map,
            layer_contexts={
                outcome_from_name(name): ids for name, ids in data["layer_contexts"].items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed taxonomy JSON: {exc}") from exc


def load_taxonomy(path) -> KnowledgeTree:
    """Load a taxonomy JSON file; a DataFormatError names the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    # a JSONDecodeError, an int past Python's digit limit, or text that is not UTF-8
    except ValueError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return tree_from_dict(data)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def canonical_hash(tree: KnowledgeTree) -> str:
    """Stable sha256 over the canonical JSON form; used to pin saved models."""
    payload = json.dumps(tree_to_dict(tree), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_DEFAULT_TREE: KnowledgeTree | None = None


def default_tree() -> KnowledgeTree:
    """The packaged K=3 taxonomy (loaded once, then cached)."""
    global _DEFAULT_TREE
    if _DEFAULT_TREE is None:
        text = resources.files("ksat.data").joinpath("default_taxonomy.json").read_text("utf-8")
        _DEFAULT_TREE = tree_from_dict(json.loads(text))
    return _DEFAULT_TREE
