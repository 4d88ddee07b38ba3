"""The benchmark's three workloads, driven through the public ``ksat`` API.

Every workload is closed-loop: one caller runs one pass at a time and the
next pass starts only after the previous one returned. ``setup`` builds the
program's inputs from the seed and is timed as set-up; ``run_pass`` times the
program's work and nothing else; ``check_pass`` and ``finish`` verify outputs
outside any timed region and count each operation as attempted or failed.

Why these workloads (see README.md for the layer map):

* ``fit-c6``: the C6 corpus. Tiny posts from a nine-phrase bank, so per-post
  Python overhead (layer loop, backward pass, lattice scoring) dominates and
  the embedding cache nearly always hits.
* ``long-posts``: 100-300 sentence posts with unique filler, scored forward
  only with the penalty on. The O(n^2) pair loops and the dense pair incidence
  in ``compile_post`` dominate; the embedding cache rarely hits.
* ``gradcheck``: the C1 fixture. Thousands of extended-precision loss
  evaluations of three tiny posts, so per-call overhead dominates.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

import ksat
from ksat import DataFormatError, NumericalError

PROGRAM_ERRORS = (NumericalError, DataFormatError)


class Tally:
    """Operations attempted and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failures.extend([what] * count)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def _check_same_digests(results, tally: Tally, what: str) -> None:
    digests = {r["digest"] for r in results if r.get("digest") is not None}
    tally.record(len(digests) == 1, f"{what}: passes disagree ({len(digests)} digests)")


class FitC6:
    """Grid search, full-batch training and held-out metrics on the C6 corpus."""

    name = "fit-c6"
    N_POSTS = 300
    TRAIN_FRACTION = 0.8
    DIMENSION = 64
    EMBED_SEED = 7  # the C6 protocol's hash seed; its filler is query-orthogonal
    THETA_STEP = 0.1
    EPOCHS = 50
    LEARNING_RATE = 0.05

    def setup(self, seed: int) -> None:
        self.tree = ksat.default_tree()
        self.config = ksat.EmbeddingConfig(dimension=self.DIMENSION, seed=self.EMBED_SEED)
        dataset = ksat.generate_synthetic(
            ksat.default_synthetic_spec(self.N_POSTS, seed, self.tree), self.tree
        )
        self.train_ds, self.test_ds = ksat.split(dataset, self.TRAIN_FRACTION, seed)
        self.model = ksat.KsatModel.initialize(self.tree, self.config, seed=seed)
        self.train_config = ksat.TrainConfig(
            epochs=self.EPOCHS,
            learning_rate=self.LEARNING_RATE,
            seed=seed,
            kg_bias_enabled=False,
        )

    def run_pass(self, index: int, tally: Tally) -> dict:
        out = {"grid_s": 0.0, "train_s": 0.0, "eval_s": 0.0, "grid": None, "trained": None, "metrics": None}
        try:
            out["grid"], out["grid_s"] = _timed(
                ksat.grid_search, self.train_ds, self.tree, self.config, self.THETA_STEP
            )
        except PROGRAM_ERRORS as exc:
            tally.record(False, f"grid_search: {exc}")
        try:
            out["trained"], out["train_s"] = _timed(
                ksat.train, self.model, self.train_ds, self.train_config
            )
        except PROGRAM_ERRORS as exc:
            tally.record(False, f"train: {exc}")
        if out["trained"] is not None:
            try:
                out["metrics"], out["eval_s"] = _timed(
                    ksat.compute_metrics, out["trained"].model, self.test_ds
                )
            except PROGRAM_ERRORS as exc:
                tally.record(False, f"compute_metrics: {exc}", len(self.test_ds))
        out["wall_s"] = out["grid_s"] + out["train_s"] + out["eval_s"]
        return out

    def check_pass(self, out: dict, tally: Tally) -> None:
        grid, trained, metrics = out["grid"], out["trained"], out["metrics"]
        if grid is not None:
            tally.record(True, "grid_search")
            expected_ll = ksat.bernoulli_log_likelihood(
                self.train_ds, self.tree, grid.params, self.config
            )
            tally.record(
                grid.log_likelihood == expected_ll,
                f"grid log-likelihood {grid.log_likelihood!r} != {expected_ll!r}",
            )
            lattice = int(round(2.0 / self.THETA_STEP)) + 1
            expected_n = 3 * lattice ** self.tree.num_concepts
            tally.record(
                grid.n_candidates == expected_n,
                f"grid n_candidates {grid.n_candidates} != {expected_n}",
            )
        if trained is not None:
            tally.record(True, "train")
            losses = np.asarray(trained.losses)
            tally.record(
                len(losses) == self.EPOCHS + 1
                and bool(np.all(np.isfinite(losses)))
                and trained.final_loss < trained.initial_loss,
                f"loss trace not finite and decreasing: {trained.losses[:1]}..{trained.losses[-1:]}",
            )
        if metrics is None and trained is None:
            tally.record(False, "held-out posts not scored: training failed", len(self.test_ds))
        predictions = None
        if metrics is not None:
            tally.record(True, "held-out post scored", len(self.test_ds))
            predictions = [ksat.predict(trained.model, p).value for p in self.test_ds.posts]
        out["digest"] = _digest(
            None if grid is None else (grid.params, grid.log_likelihood.hex()),
            None if trained is None else np.asarray(trained.losses).tobytes(),
            predictions,
            None if metrics is None else (metrics.accuracy.hex(), metrics.auc.hex()),
        )

    def finish(self, results: list, tally: Tally) -> None:
        _check_same_digests(results, tally, "fit-c6 determinism")

    def forward_probe(self):
        post = max(self.test_ds.posts, key=lambda p: len(p.sentences))
        return self.model, post

    def expected_calls(self) -> dict:
        return {}

    def report(self, results: list) -> list[tuple[str, list, str]]:
        ok = [r for r in results if r["grid"] is not None and r["trained"] is not None]
        rows = []
        if ok:
            n_candidates = ok[0]["grid"].n_candidates
            post_epochs = len(self.train_ds) * self.EPOCHS
            rows += [
                ("grid_candidates_per_s", [n_candidates / r["grid_s"] for r in ok], "1/s"),
                ("train_post_epochs_per_s", [post_epochs / r["train_s"] for r in ok], "1/s"),
                ("grid_s", [r["grid_s"] for r in ok], "s"),
                ("train_s", [r["train_s"] for r in ok], "s"),
                ("eval_s", [r["eval_s"] for r in ok], "s"),
            ]
        scored = [r for r in results if r["metrics"] is not None]
        if scored:
            rows += [
                ("heldout_accuracy", [r["metrics"].accuracy for r in scored], "1"),
                ("heldout_auc", [r["metrics"].auc for r in scored], "1"),
            ]
        return rows


# Filler vocabulary for long posts: plain words, and a per-sentence nonce token
# makes every filler sentence unique.
_FILLER_WORDS = (
    "morning traffic kitchen window garden market river bridge station ticket "
    "coffee bakery library museum harbor island meadow orchard pebble quarry "
    "ridge summit thicket valley canyon desert forest lantern candle blanket "
    "pillow curtain carpet ladder bucket shovel bicycle helmet jacket sweater"
).split()


class LongPosts:
    """Annotate and score long posts, forward only, penalty on."""

    name = "long-posts"
    LENGTHS = (100, 150, 200, 250, 300)  # sentences per post; every pass uses each once
    TRIGGER_SHARE = 0.2
    DIMENSION = 64
    EPSILON = 1.0
    VALUE_SCALE = 0.25
    REL_TOL = 1e-12

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.tree = ksat.default_tree()
        self.config = ksat.EmbeddingConfig(dimension=self.DIMENSION, seed=seed)
        self.params = ksat.default_params()
        self.model = ksat.KsatModel.initialize(
            self.tree,
            self.config,
            seed=seed,
            epsilon=self.EPSILON,
            value_scale=self.VALUE_SCALE,
        )

    def posts(self, index: int) -> ksat.Dataset:
        """Fresh posts for pass ``index``: same lengths every pass, new text."""
        rng = np.random.default_rng([self.seed, index])
        queries = [c.query_text for c in self.tree.concepts]
        posts = []
        for k, n in enumerate(rng.permutation(self.LENGTHS).tolist()):
            sentences = []
            for i in range(n):
                if rng.random() < self.TRIGGER_SHARE:
                    query = queries[int(rng.integers(len(queries)))]
                    sentences.append(f"{query} {_FILLER_WORDS[int(rng.integers(len(_FILLER_WORDS)))]}")
                else:
                    words = [_FILLER_WORDS[j] for j in rng.integers(len(_FILLER_WORDS), size=5)]
                    sentences.append(" ".join(words) + f" n{index}x{i}r{int(rng.integers(1 << 30)):x}")
            posts.append(ksat.Post(id=f"p{index}-{k}", sentences=sentences))
        return ksat.Dataset(posts=posts)

    def run_pass(self, index: int, tally: Tally) -> dict:
        dataset = self.posts(index)
        out = {"index": index, "annotate_s": 0.0, "forward_s": [], "finals": [], "posts": []}
        try:
            annotated, out["annotate_s"] = _timed(
                ksat.apply_annotations, dataset, self.tree, self.params, self.config
            )
        except PROGRAM_ERRORS as exc:
            tally.record(False, f"apply_annotations: {exc}", len(dataset))
            annotated = ksat.Dataset(posts=[])
        for post in annotated.posts:
            try:
                (final, acts), seconds = _timed(ksat.forward, self.model, post)
            except PROGRAM_ERRORS as exc:
                tally.record(False, f"forward {post.id}: {exc}")
                continue
            out["forward_s"].append(seconds)
            out["finals"].append((final, np.vstack([a.layer_probs for a in acts])))
            out["posts"].append(post)
        out["wall_s"] = out["annotate_s"] + sum(out["forward_s"])
        return out

    def check_pass(self, out: dict, tally: Tally) -> None:
        for post, (final, per_layer) in zip(out["posts"], out["finals"]):
            tally.record(
                bool(np.all(np.isfinite(final)))
                and bool(np.all(final <= per_layer.min(axis=0) + 1e-15)),
                f"{post.id}: final scores not finite or above a layer's probabilities",
            )
        out["digest"] = _digest(
            [p.sentence_presence for p in out["posts"]],
            [final.tobytes() for final, _ in out["finals"]],
        )
        # The posts are kept only for the first pass, which finish() replays.
        if out["index"] != 0:
            out["posts"], out["finals"] = [], []

    def finish(self, results: list, tally: Tally) -> None:
        first = results[0]
        replay = self.run_pass(0, Tally())
        self.check_pass(replay, Tally())
        tally.record(replay["digest"] == first["digest"], "long-posts determinism: replay differs")
        if first["posts"]:
            post = min(first["posts"], key=lambda p: len(p.sentences))
            final = first["finals"][first["posts"].index(post)][0]
            recomposed = self._recompose(post)
            rel = float(np.max(np.abs(recomposed - final) / np.abs(final)))
            tally.record(rel <= self.REL_TOL, f"layer_forward recomposition off by {rel:.3g} relative")

    def _recompose(self, post: ksat.Post) -> np.ndarray:
        """The final scores rebuilt through the public per-layer entry points."""
        model = self.model
        reps = np.zeros((len(post.sentences) + 2, model.dimension))
        reps[2:] = [ksat.embed_text(s, model.embedding_config) for s in post.sentences]
        probs = []
        for layer in model.layers:
            restricted = [
                ksat.knowledge.connection_vector(row, layer.context)
                for row in post.sentence_presence
            ]
            reps, acts = ksat.layer_forward(reps, layer, restricted, model.epsilon)
            probs.append(acts.layer_probs)
        return ksat.aggregate_probs(probs)

    def forward_probe(self):
        annotated = ksat.apply_annotations(self.posts(0), self.tree, self.params, self.config)
        return self.model, max(annotated.posts, key=lambda p: len(p.sentences))

    def expected_calls(self) -> dict:
        layers = len(self.model.layers)
        return {
            "knowledge.hamming_distance": layers * sum(n * (n - 1) // 2 for n in self.LENGTHS),
            "knowledge.connection_vector": layers * sum(self.LENGTHS),
        }

    def report(self, results: list) -> list[tuple[str, list, str]]:
        timed = [r for r in results if r["forward_s"]]
        return [
            ("eval_posts_per_s", [len(r["forward_s"]) / sum(r["forward_s"]) for r in timed], "1/s"),
            ("annotate_s", [r["annotate_s"] for r in results], "s"),
            ("forward_latency_s", [s for r in results for s in r["forward_s"]], "s"),
        ]


class GradCheck:
    """One extended-precision finite-difference check of the C1 fixture."""

    name = "gradcheck"
    # C1 draws three posts of 1-2 sentences (3 when all concepts are planted),
    # and the check's cost grows with them. Fixing the commonest C1 shape, taken
    # in corpus order from a seeded pool, makes every seed do the same work.
    SENTENCE_COUNTS = (1, 2, 2)
    POOL = 48
    DIMENSION = 16
    EPSILON = 1.0
    VALUE_SCALE = 0.25
    MAX_ERROR = 1e-4  # the C1 bound

    def setup(self, seed: int) -> None:
        self.tree = ksat.default_tree()
        pool = ksat.generate_synthetic(
            ksat.default_synthetic_spec(self.POOL, seed, self.tree), self.tree
        ).posts
        posts = []
        for count in self.SENTENCE_COUNTS:
            post = next(
                (p for p in pool if len(p.sentences) == count and p not in posts), None
            )
            if post is None:
                raise RuntimeError(f"seed {seed}: no {count}-sentence post in a pool of {self.POOL}")
            posts.append(post)
        self.batch = [(p, p.sentence_presence, p.gold) for p in posts]
        self.model = ksat.KsatModel.initialize(
            self.tree,
            ksat.EmbeddingConfig(dimension=self.DIMENSION, seed=seed),
            seed=seed,
            epsilon=self.EPSILON,
            value_scale=self.VALUE_SCALE,
        )
        self.config = ksat.TrainConfig()  # default fd_step and tolerance, as in C1

    def run_pass(self, index: int, tally: Tally) -> dict:
        out = {"report": None, "gradcheck_s": 0.0}
        try:
            out["report"], out["gradcheck_s"] = _timed(
                ksat.finite_diff_check, self.model, self.batch, self.config
            )
        except PROGRAM_ERRORS as exc:
            tally.record(False, f"finite_diff_check: {exc}")
        out["wall_s"] = out["gradcheck_s"]
        return out

    def check_pass(self, out: dict, tally: Tally) -> None:
        report = out["report"]
        if report is None:
            out["digest"] = None
            return
        tally.record(
            report.passed and report.max_error < self.MAX_ERROR,
            f"gradient check failed: max error {report.max_error!r}",
        )
        out["digest"] = _digest(sorted((k, v.hex()) for k, v in report.block_errors.items()))

    def finish(self, results: list, tally: Tally) -> None:
        _check_same_digests(results, tally, "gradcheck determinism")

    def forward_probe(self):
        post = max((p for p, _, _ in self.batch), key=lambda p: len(p.sentences))
        return self.model, post

    def loss_evaluations(self) -> int:
        """One analytic evaluation plus two per scalar parameter."""
        d = self.DIMENSION
        per_layer = 3 * d * d + d + d * ksat.N_OUTCOMES + 1
        return 1 + 2 * per_layer * len(self.model.layers)

    def expected_calls(self) -> dict:
        return {"model.run_layers": len(self.batch) * self.loss_evaluations()}

    def report(self, results: list) -> list[tuple[str, list, str]]:
        checked = [r for r in results if r["report"] is not None]
        return [
            ("gradcheck_s", [r["gradcheck_s"] for r in checked], "s"),
            ("gradcheck_max_rel_err", [r["report"].max_error for r in checked], "1"),
            ("loss_evaluations", [self.loss_evaluations()], "count"),
        ]


WORKLOADS = {w.name: w for w in (FitC6, LongPosts, GradCheck)}
