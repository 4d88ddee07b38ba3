"""Run the ksat benchmark and print its metrics.

    python3 perfbench/run.py --workload fit-c6 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``ksat`` from its
``src/`` directory. The metric names and units come from ``BENCHMARK.json``
at the checkout root. Human-readable lines (environment, every workload
metric with its unit, failed checks) come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the JSON metrics are the end-to-end metrics; their times
are scaled to a nominal machine speed by ``probe.SpeedProbe``. With
``--trace 1`` passes alternate between untraced and traced, the JSON metrics
are the per-layer metrics, and every span is written to
``.bench_out/<workload>-seed<seed>.spans.npz``. ``--workload all`` runs the
three workloads one after another in this process. The exit code is 0 only
when every operation and output check succeeded.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

from stats import check_metric_name, describe, median

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# BLAS threads are pinned so pass times do not swing with thread scheduling;
# these must be set before NumPy is first imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
BLAS_THREADS = "1"
SETUP_REPEATS = 31
MIN_PASSES = 2  # the determinism check compares passes
MAX_TRACED_PASSES = 3  # bounds span memory: a long-posts pass makes ~460k spans
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter
SETUP_SPANS = ("corpus.generate_synthetic",)  # per-layer metrics taken from set-up


def pin_malloc_threshold() -> bool:
    """Fix glibc's mmap threshold at its default, turning off its adjustment.

    glibc raises the threshold after large blocks are freed, so later large
    arrays come from a heap that is trimmed lazily, and peak RSS then depends
    on allocation history rather than on the memory the program holds.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    return mallopt is not None and mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def import_program():
    src = ROOT / "src"
    if not (src / "ksat" / "__init__.py").is_file():
        raise SystemExit(f"error: no ksat sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import ksat

    if Path(ksat.__file__).resolve().parent != (src / "ksat").resolve():
        raise SystemExit(f"error: imported ksat from {ksat.__file__}, not from {src}")
    return ksat


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_text = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def forward_peak_mb(ksat, model, post) -> float:
    """tracemalloc peak of one forward pass, in MiB."""
    tracemalloc.start()
    try:
        ksat.forward(model, post)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run_workload(ksat, workload, seed: int, seconds: float, trace: bool, spec: dict):
    """Set up, run timed passes, check outputs; returns (metrics, tally, lines)."""
    from probe import SpeedProbe
    from tracer import Tracer
    from workloads import Tally

    tally = Tally()
    tracer = Tracer() if trace else None
    probe = SpeedProbe()
    setup_s = []
    with probe.watching() as setup_window:
        for rep in range(SETUP_REPEATS):
            with tracer.recording(-1 - rep) if trace else nullcontext():
                start = time.perf_counter()
                workload.setup(seed)
                setup_s.append(time.perf_counter() - start)

    results = []
    start = time.perf_counter()
    while True:
        index = len(results)
        traced = trace and index % 2 == 1 and index < 2 * MAX_TRACED_PASSES
        # traced passes are reported raw: the probe's handler would land in spans
        with tracer.recording(index) if traced else probe.watching() as window:
            out = workload.run_pass(index, tally)
        if not traced:
            out["net_s"] = out["wall_s"] - window["overhead_s"]
            out["scale"] = window["scale"]
        workload.check_pass(out, tally)
        out["traced"] = traced
        results.append(out)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_PASSES and elapsed + out["wall_s"] > seconds:
            break
    workload.finish(results, tally)

    untraced = [r for r in results if not r["traced"]]
    lines = [f"passes {len(results)} ({len(results) - len(untraced)} traced)"]
    if not trace:
        wall = [r["net_s"] * r["scale"] for r in untraced]
        setup = [t * setup_window["scale"] for t in setup_s]
        metrics = {
            "wall_s": median(wall),
            "setup_s": median(setup),
            "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        rows = [
            ("wall_s", wall, "s"),
            ("setup_s", setup, "s"),
            ("wall_raw_s", [r["net_s"] for r in untraced], "s"),
            ("setup_raw_s", setup_s, "s"),
            ("speed_scale", [r["scale"] for r in untraced], "1"),
        ]
        rows += workload.report(untraced)
        lines += [f"metric {name}: {describe(values, unit)}" for name, values, unit in rows if values]
        lines.append(f"metric peak_mem_mb: {metrics['peak_mem_mb']:.6g} MB (peak RSS of the process so far)")
        wanted = spec["end_to_end"]
    else:
        metrics = layer_metrics(ksat, workload, tracer, results, tally, spec)
        path = OUT_DIR / f"{workload.name}-seed{seed}.spans.npz"
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(path)
        lines.append(f"spans {tracer.span_count} written to {path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    lines.append(
        f"metric failed_frac: {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} operations)"
    )
    lines += [f"check FAILED: {what}" for what in dict.fromkeys(tally.failures)]
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        raise SystemExit(f"error: {workload.name} produced no value for {sorted(missing)}")
    units = {m["name"]: m["unit"] for m in wanted}
    return (
        {check_metric_name(n): {"value": metrics[n], "unit": units[n]} for n in units},
        tally,
        lines,
    )


def layer_metrics(ksat, workload, tracer, results, tally, spec) -> dict:
    """Per-layer values: medians over traced passes (set-up spans: over set-ups)."""
    units = tracer.per_unit()
    traced_ids = [i for i, r in enumerate(results) if r["traced"]]
    setup_ids = [-1 - rep for rep in range(SETUP_REPEATS)]
    zero = {"calls": 0.0, "s": 0.0, "self_s": 0.0}

    for span, expected in workload.expected_calls().items():
        for i in traced_ids:
            got = units.get(i, {}).get(span, zero)["calls"]
            tally.record(got == expected, f"{span}: {got:.0f} calls in pass {i}, expected {expected}")

    traced_wall = median(r["wall_s"] for r in results if r["traced"])
    untraced_wall = median(r["net_s"] for r in results if not r["traced"])
    metrics = {"trace.overhead_s": traced_wall - untraced_wall}
    model, post = workload.forward_probe()
    metrics["model.forward.peak_mb"] = forward_peak_mb(ksat, model, post)
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name in metrics:
            continue
        span, stat = name.rsplit(".", 1)
        ids = setup_ids if span in SETUP_SPANS else traced_ids
        metrics[name] = median(units.get(i, {}).get(span, zero)[stat] for i in ids)
    return metrics


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    malloc_pinned = pin_malloc_threshold()
    ksat = import_program()
    from workloads import WORKLOADS

    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = environment()
    env["malloc_mmap_threshold_pinned"] = malloc_pinned
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined, attempted, failed = {}, 0, 0
    for name in names:
        metrics, tally, lines = run_workload(
            ksat, WORKLOADS[name](), args.seed, args.seconds, bool(args.trace), spec
        )
        print(f"# workload {name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        for line in lines:
            print(line)
        sys.stdout.flush()
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        combined.update({prefix + k: v for k, v in metrics.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
