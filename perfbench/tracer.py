"""Span tracer that wraps ``ksat``'s public functions from outside the package.

While a recording is active, every traced function is replaced, in every
``ksat`` module namespace that bound it, by a wrapper that records one span:
name, start, end, parent span and the id of the pass it belongs to. Calls made
inside the package go through the wrappers too, because the package looks its
functions up in module globals at call time. Spans stay in memory, in compact
arrays, until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "ksat"

# Span names are "<module>.<function>" within the package.
TRACED = (
    "corpus.generate_synthetic",
    "embeddings.embed_text",
    "embeddings.cosine_similarity",
    "knowledge.hamming_distance",
    "knowledge.connection_vector",
    "annotation.grid_search",
    "annotation.apply_annotations",
    "annotation.annotate_post",
    "model.compile_post",
    "model.run_layers",
    "model.sigmoid",
    "model.softmax_rows",
    "model.forward",
    "training.train",
    "training.loss_and_gradients",
    "training.finite_diff_check",
    "analysis.compute_metrics",
)


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so a parent's self time never goes below zero.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    children = np.flatnonzero(parents >= 0)
    children = children[np.lexsort((starts[children], parents[children]))]
    owner = parents[children]
    lo = np.maximum(starts[children], starts[owner])
    hi = np.minimum(ends[children], ends[owner])
    siblings = owner[1:] == owner[:-1]
    if np.any(siblings & (lo[1:] < hi[:-1])):
        # overlapping siblings (never produced by one thread's call stack):
        # start each child where the earlier siblings' coverage ends
        reach: dict[int, float] = {}
        for k, p in enumerate(owner.tolist()):
            lo[k] = max(lo[k], reach.get(p, lo[k]))
            reach[p] = max(reach.get(p, hi[k]), hi[k])
    covered = np.bincount(owner, weights=np.clip(hi - lo, 0.0, None), minlength=len(starts))
    return ends - starts - covered


class Tracer:
    """Records spans for the functions named in ``TRACED``."""

    def __init__(self) -> None:
        self.names = list(TRACED)
        self._name = array("H")
        self._parent = array("i")
        self._pass = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._pass_id = 0
        self._wrappers = {}
        for name_id, name in enumerate(self.names):
            module_name, func_name = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            self._wrappers[id(original)] = (original, self._wrap(original, name_id))
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int):
        names, parents, passes = self._name, self._parent, self._pass
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            passes.append(self._pass_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def recording(self, pass_id: int):
        """Trace calls made inside the block, tagging their spans ``pass_id``."""
        self._pass_id = pass_id
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])
        try:
            yield self
        finally:
            for module, attr, value in reversed(self._patches):
                setattr(module, attr, value)
            self._patches.clear()

    @property
    def span_count(self) -> int:
        return len(self._start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self._pass, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def per_unit(self) -> dict[int, dict[str, dict[str, float]]]:
        """``{pass_id: {span name: {"calls", "s", "self_s"}}}`` over all spans."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        own = self_times(spans["start"], spans["end"], spans["parent"])
        out: dict[int, dict[str, dict[str, float]]] = {}
        for pass_id in np.unique(spans["pass_id"]).tolist():
            in_pass = spans["pass_id"] == pass_id
            names = spans["name"][in_pass]
            n = len(self.names)
            calls = np.bincount(names, minlength=n)
            total = np.bincount(names, weights=duration[in_pass], minlength=n)
            self_total = np.bincount(names, weights=own[in_pass], minlength=n)
            out[pass_id] = {
                name: {"calls": float(calls[i]), "s": float(total[i]), "self_s": float(self_total[i])}
                for i, name in enumerate(self.names)
            }
        return out

    def save(self, path) -> None:
        """Write every span, plus the name table, as a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
