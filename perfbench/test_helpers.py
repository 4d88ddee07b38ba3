"""Unit tests for the benchmark's own helpers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ksat  # noqa: E402
from probe import BRACKET, SpeedProbe  # noqa: E402
from stats import check_metric_name, tail_percentile  # noqa: E402
from tracer import TRACED, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # span 0 [0, 10] has children 1 [1, 3] and 2 [4, 8]; span 3 [5, 6] is a grandchild
    own = self_times([0, 1, 4, 5], [10, 3, 8, 6], [-1, 0, 0, 2])
    assert own.tolist() == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [2, 6] and [4, 9] overlap on [4, 6]; [9, 12] sticks out past the parent's end 10
    own = self_times([0, 2, 4, 9], [10, 6, 9, 12], [-1, 0, 0, 0])
    assert own[0] == pytest.approx(10 - 8)
    assert own[1:].tolist() == [4.0, 5.0, 3.0]


def test_self_time_ignores_child_order_in_the_arrays():
    own = self_times([0, 4, 1], [10, 8, 3], [-1, 0, 0])
    assert own.tolist() == [4.0, 4.0, 2.0]


@pytest.mark.parametrize("name", ["wall_s", "model.compile_post.self_s", "a-b.c_d", "9lives"])
def test_metric_name_accepted(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "has space", "p/s", "x" * 65, "métrique"])
def test_metric_name_rejected(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


@pytest.mark.parametrize(
    "n, expected_p",
    [(9, None), (20, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected_p):
    values = list(range(1, n + 1))
    got = tail_percentile(values)
    if expected_p is None:
        assert got is None
        return
    p, value = got
    assert p == expected_p
    assert sum(v > value for v in values) >= 10


def test_benchmark_json_names_are_valid_and_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"] + spec["per_layer"]:
        check_metric_name(entry["name"])
    derived = {"trace.overhead_s", "model.forward.peak_mb"}
    for entry in spec["per_layer"]:
        if entry["name"] not in derived:
            assert entry["name"].rsplit(".", 1)[0] in TRACED, entry["name"]


def test_tracer_wraps_every_namespace_and_restores_it():
    tree = ksat.default_tree()
    dataset = ksat.generate_synthetic(ksat.default_synthetic_spec(2, 0, tree), tree)
    model = ksat.KsatModel.initialize(tree, ksat.EmbeddingConfig(dimension=8), seed=0)
    originals = (ksat.forward, ksat.model.run_layers, ksat.training.run_layers)
    tracer = Tracer()
    with tracer.recording(3):
        ksat.forward(model, dataset.posts[0])
        ksat.loss(model, [(p, p.sentence_presence, p.gold) for p in dataset.posts])
    assert (ksat.forward, ksat.model.run_layers, ksat.training.run_layers) == originals
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert set(spans["pass_id"].tolist()) == {3}
    assert names[0] == "model.forward" and spans["parent"][0] == -1
    # one run_layers under forward, then one per post through ksat.training's binding
    run_layers = [i for i, name in enumerate(names) if name == "model.run_layers"]
    assert len(run_layers) == 1 + len(dataset.posts)
    assert names[spans["parent"][run_layers[0]]] == "model.forward"
    stats = tracer.per_unit()[3]
    assert stats["model.compile_post"]["calls"] == 1 + len(dataset.posts)
    assert stats["model.forward"]["self_s"] <= stats["model.forward"]["s"]
    assert np.all(spans["end"] >= spans["start"])


def test_speed_probe_counts_its_handler_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval_s=0.02).watching() as window:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    inside = window["samples"][BRACKET:-BRACKET]
    assert len(inside) >= 2
    assert window["overhead_s"] == pytest.approx(sum(inside))
    assert window["scale"] > 0
