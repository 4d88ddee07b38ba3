#!/usr/bin/env python3
"""Print one SHA-256 line per model output at fixed seeds and sizes.

The outputs are forward finals, every `LayerPass` field and its
`layer_probs` property, the finals and penalties of one 300-sentence post at
d = 64, short `train` traces and parameters with the
graph-context penalty on and off, at two sizes, the penalty-on trained
model as `model_to_dict` reads it after a `save_model`/`load_model` round
trip (the larger fills length
buckets past 128 KiB per array), `backward` gradients on short posts, on
longer ones and on a bucket whose layers hold dozens of sentence groups, the
penalty (`kg_bias`) over nearly as many groups as rows, the loss over
(post, presence, gold) triples whose presence is not their posts' own, a small
`finite_diff_check`'s block errors, and what
the loss's collapse guard reports on a batch crafted to collapse, through
`loss` and through `train`, a taxonomy's canonical hash after a
`tree_to_dict`/`tree_from_dict` round trip, annotations at each fragment size, a lattice
search's result, the raw annotation cosines at each fragment size and the
sentence vectors `compile_post` embeds, and what the analysis readers give on
a shuffled corpus of mixed lengths. A change that claims bit-identical
outputs is checked by running this script at the parent commit and at the
change and diffing the two outputs:

    python3 scripts/output_digest.py > after.txt
    (in a checkout of the parent) python3 scripts/output_digest.py > before.txt
    diff before.txt after.txt

The script imports `ksat` from the `src/` beside it, so each checkout
digests its own code. It takes no arguments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

# before the ksat imports: each checkout must digest its own code
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from ksat.analysis import (
    contribution_report,
    distance_report,
    score_posts,
    within_class_kcls_distance,
)
from ksat.annotation import AnnotationParams, _cosine_rows, apply_annotations, grid_search
from ksat.corpus import Dataset, Post, default_synthetic_spec, generate_synthetic
from ksat.embeddings import EmbeddingConfig
from ksat.errors import NumericalError
from ksat.knowledge import (
    LAYER_ORDER,
    Concept,
    KnowledgeTree,
    Outcome,
    canonical_hash,
    default_tree,
    tree_from_dict,
    tree_to_dict,
)
from ksat.model import (
    ARRAY_BLOCKS,
    KsatModel,
    LayerPass,
    compile_post,
    forward,
    kg_bias,
    load_model,
    model_to_dict,
    save_model,
)
from ksat.training import TrainConfig, backward, finite_diff_check, loss, train

SEED = 3


def _digest(values) -> str:
    """SHA-256 over each value's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for value in values:
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _corpus(tree, n_posts: int, sentences: tuple[int, int]):
    spec = dataclasses.replace(
        default_synthetic_spec(n_posts, SEED, tree), sentences_per_post=sentences
    )
    return generate_synthetic(spec, tree)


def _model(tree, dimension: int, **kwargs) -> KsatModel:
    return KsatModel.initialize(
        tree, EmbeddingConfig(dimension=dimension, seed=SEED), seed=SEED, **kwargs
    )


def _parameters(model: KsatModel) -> list:
    return [
        value
        for layer in model.layers
        for value in (*(getattr(layer, name) for name in ARRAY_BLOCKS), layer.a_raw)
    ]


def _wide_tree(k: int) -> KnowledgeTree:
    """A taxonomy of k concepts whose first layer reads the last k - 1 of
    them and the others all k, so a post's sentences fall into dozens of
    groups per layer; an assignment's outcome is its concept count mod 4."""
    return KnowledgeTree(
        concepts=tuple(Concept(i, f"c{i}", f"concept {i}") for i in range(k)),
        outcome_map={
            bits: LAYER_ORDER[sum(bits) % 4]
            for bits in itertools.product((0, 1), repeat=k)
        },
        layer_contexts={o: tuple(range(max(0, 1 - i), k)) for i, o in enumerate(LAYER_ORDER)},
    )


def digest_lines() -> list[str]:
    """``"<output> <sha256>"`` lines, one per output, in a fixed order."""
    tree = default_tree()
    lines = []
    # forward with the penalty live: posts of 1-8 sentences, and one of 96
    # whose layers group dozens of sentences together
    posts = _corpus(tree, 24, (1, 8)).posts + _corpus(tree, 2, (95, 100)).posts
    model = _model(tree, 16, epsilon=1.0, value_scale=0.25)
    runs = [forward(model, post) for post in posts]
    lines.append(("forward.final", _digest(final for final, _ in runs)))
    # every field, and the `layer_probs` property where it stood as a field
    names = [f.name for f in dataclasses.fields(LayerPass)]
    names.insert(names.index("logits"), "layer_probs")
    for name in names:
        values = (getattr(lp, name) for _, passes in runs for lp in passes)
        lines.append((f"forward.pass.{name}", _digest(values)))
    # forward at d = 64 over one post of 300 sentences whose layers hold two
    # to eight groups: its (T, T) arrays pass 128 KiB, as long posts' do
    presence = np.random.default_rng(SEED).integers(0, 2, (300, 3)).tolist()
    long_d64 = Post(
        id="long_d64",
        sentences=[f"long post sentence {i}." for i in range(300)],
        sentence_presence=[tuple(row) for row in presence],
    )
    final, passes = forward(_model(tree, 64, epsilon=1.0, value_scale=0.25), long_d64)
    lines.append(("forward.long_d64", _digest([final, *(lp.kg_bias for lp in passes)])))
    # train: a few full-batch epochs, penalty off and on
    train_set = _corpus(tree, 48, (1, 4))
    for label, enabled in (("off", False), ("on", True)):
        config = TrainConfig(epochs=5, learning_rate=0.05, kg_bias_enabled=enabled)
        result = train(model, train_set, config)
        lines.append((f"train.penalty_{label}.losses", _digest(result.losses)))
        lines.append((f"train.penalty_{label}.alphas", _digest(result.alphas)))
        lines.append((f"train.penalty_{label}.params", _digest(_parameters(result.model))))
    # persistence: the penalty-on model just trained, saved and loaded back
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(result.model, path)
        saved = model_to_dict(load_model(path, tree))
    lines.append(("model.save_load", _digest([json.dumps(saved, sort_keys=True)])))
    # train at d = 64 on posts of 1-5 sentences: the two-sentence bucket is
    # the largest, and its token-sized arrays take over 128 KiB each
    buckets_set = _corpus(tree, 150, (1, 5))
    wide = _model(tree, 64, epsilon=1.0, value_scale=0.25)
    traces = []
    for enabled in (False, True):
        config = TrainConfig(epochs=4, learning_rate=0.05, kg_bias_enabled=enabled)
        result = train(wide, buckets_set, config)
        traces += [result.losses, *_parameters(result.model)]
    lines.append(("train.buckets", _digest(traces)))
    # backward on the training batch
    batch = [(p, p.sentence_presence, p.gold) for p in train_set.posts]
    grads = backward(model, batch)
    lines.append(("backward.gradients", _digest(value for _, value in grads.blocks())))
    # backward, penalty on, over posts of 60, 3 and 2 sentences (the
    # generator adds filler only where it cannot change a post's label):
    # the two 2-sentence posts hold one and two groups in layer 0, so their
    # bucket pads a group
    long_set = _corpus(tree, 4, (60, 60))
    grads = backward(model, [(p, p.sentence_presence, p.gold) for p in long_set.posts])
    lines.append(("backward.long_bucket", _digest(value for _, value in grads.blocks())))
    # the penalty over nearly as many groups as sentences: 200 rows whose
    # nine-bit connection vectors fall into 171 groups
    rng = np.random.default_rng(SEED)
    vectors = [tuple(row) for row in rng.integers(0, 2, (200, 9)).tolist()]
    rows = rng.standard_normal((200, 16))
    lines.append(("kg_bias.many_groups", _digest([kg_bias(rows, vectors, 1e-3)])))
    # backward, penalty on, over one bucket of three 60-sentence posts on a
    # six-concept taxonomy, whose layers hold 20 or more groups each
    wide_tree = _wide_tree(6)
    many = [
        Post(
            id=f"m{b}",
            sentences=[f"post {b} sentence {i}." for i in range(60)],
            gold=LAYER_ORDER[b],
            sentence_presence=[tuple(row) for row in rng.integers(0, 2, (60, 6)).tolist()],
        )
        for b in range(3)
    ]
    grouped = _model(wide_tree, 16, epsilon=1.0, value_scale=0.25)
    counts = [gr.first.size for p in many for gr in compile_post(grouped, p).groups]
    assert min(counts) >= 20, counts
    grads = backward(grouped, [(p, p.sentence_presence, p.gold) for p in many])
    lines.append(("backward.many_groups", _digest(value for _, value in grads.blocks())))
    # `loss`, penalty on, over triples whose presence rows are not their
    # posts' own: the triple's rows are the ones compiled
    triples = [
        (p, [(i % 2, 0, 1) for i in range(len(p.sentences))], p.gold) for p in train_set.posts
    ]
    value = loss(model, triples)
    assert value != loss(model, batch), "the triples' presence changes no penalty"
    lines.append(("compile_batch.triple", _digest([value])))
    # finite differences at d = 4 on three posts
    small = _model(tree, 4, epsilon=1.0, value_scale=0.25)
    report = finite_diff_check(small, batch[:3], TrainConfig())
    errors = [report.block_errors[name] for name in sorted(report.block_errors)]
    lines.append(("finite_diff_check.block_errors", _digest(errors)))
    # the collapse guard: identity value projections and sentences at
    # Hamming distance 0 drive the second post's layers to ~-1e5
    collapsing = _model(tree, 8)
    for layer in collapsing.layers:
        layer.w_value[:] = np.eye(8)
    crafted = [
        Post(
            id=f"c{n}",
            sentences=[f"wish to be dead {i}." for i in range(n)],
            gold=Outcome.IDEATION_1,
            sentence_presence=[(1, 0, 0)] * n,
        )
        for n in (1, 3)
    ]
    try:
        loss(collapsing, [(p, p.sentence_presence, p.gold) for p in crafted])
    except NumericalError as exc:
        facts = [str(exc), exc.post_id, exc.layer, exc.log_peak]
    else:
        facts = ["no collapse"]
    lines.append(("loss.collapse", _digest(facts)))
    # the same batch through `train`, whose loss runs per length bucket
    try:
        train(collapsing, Dataset(posts=crafted), TrainConfig(epochs=1))
    except NumericalError as exc:
        facts = [exc.epoch, exc.post_id, exc.layer, exc.log_peak]
    else:
        facts = ["no collapse"]
    lines.append(("train.collapse", _digest(facts)))
    # the taxonomy reader and the constructor's sorting: the packaged tree,
    # and one built in Python with its contexts out of order
    unsorted = KnowledgeTree(
        concepts=tree.concepts,
        outcome_map=tree.outcome_map,
        layer_contexts=dict(zip(LAYER_ORDER, ([2], (2, 0), [1, 2, 0], (2, 1)))),
    )
    facts = [canonical_hash(tree_from_dict(tree_to_dict(t))) for t in (tree, unsorted)]
    lines.append(("taxonomy.round_trip", _digest(facts)))
    # annotation: the training posts plus one post of 100 distinct sentences
    # that mixes trigger phrases with filler
    spec = default_synthetic_spec(1, SEED, tree)
    phrases = [p for bank in spec.keyword_bank.values() for p in bank] + spec.noise_phrases
    long_post = Post(
        id="long", sentences=[f"{phrases[i % len(phrases)]} {i}" for i in range(100)]
    )
    config = EmbeddingConfig(dimension=64, seed=SEED)
    annotate_set = Dataset(posts=[*train_set.posts, long_post])
    # at thresholds 0.7 every pair of fragment sizes disagrees on some posts
    for frag_size in (1, 2, 3):
        params = AnnotationParams(thetas=(0.7, 0.7, 0.7), frag_size=frag_size)
        annotated = apply_annotations(annotate_set, tree, params, config)
        values = [
            value
            for p in annotated.posts
            for value in (p.sentence_presence, p.extras["post_presence"], p.extras["predicted"])
        ]
        lines.append((f"annotate.frag{frag_size}", _digest(values)))
    # the raw cosines behind those bits, one call's rows at each fragment
    # size, so a last-bit change that flips no bit still shows
    rows = _cosine_rows(tree, config)
    for frag_size in (1, 2, 3):
        values = [rows(p.sentences, frag_size) for p in annotate_set.posts]
        lines.append((f"cosine_rows.frag{frag_size}", _digest(values)))
    # the sentence vectors `compile_post` embeds, at two dimensions, for a
    # long post whose tokens repeat within and across sentences
    repeating = Post(
        id="repeating",
        sentences=[
            f"{phrases[i % len(phrases)]} {phrases[3 * i % len(phrases)]} {i % 7} {i % 7}"
            for i in range(120)
        ],
        sentence_presence=[(i % 2, 0, 1) for i in range(120)],
    )
    values = [compile_post(m, repeating).embeddings for m in (model, wide)]
    lines.append(("compile_post.embeddings", _digest(values)))
    result = grid_search(train_set, tree, config, theta_step=0.5)
    facts = [
        result.params.thetas,
        result.params.frag_size,
        result.log_likelihood.hex(),
        result.n_candidates,
    ]
    lines.append(("grid_search", _digest(facts)))
    # the analysis readers, penalty on, over posts of 1-8 sentences in
    # shuffled order, so the length buckets do not run in dataset order
    mixed = _corpus(tree, 30, (1, 8)).posts
    mixed = Dataset(posts=[mixed[i] for i in np.random.default_rng(SEED).permutation(len(mixed))])
    gold, predicted, scores = score_posts(model, mixed)
    lines.append(("analysis.score_posts.predicted", _digest([gold, predicted])))
    lines.append(("analysis.score_posts.rows", _digest([scores])))
    rows = contribution_report(model, mixed)
    lines.append(("analysis.contribution_report", _digest(dataclasses.astuple(r) for r in rows)))
    report = distance_report(model, mixed)
    facts = [report.threshold, *report.rows()]
    lines.append(("analysis.distance_report", _digest(facts)))
    within = within_class_kcls_distance(model, mixed)
    lines.append(("analysis.within_class_kcls_distance", _digest([within])))
    return [f"{name} {digest}" for name, digest in lines]


def main() -> int:
    if len(sys.argv) > 1:
        print("usage: output_digest.py (takes no arguments)", file=sys.stderr)
        return 2
    for line in digest_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
