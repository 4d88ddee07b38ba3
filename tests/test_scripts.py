"""Smoke tests: each demo script in ``scripts/`` runs to completion at a tiny size."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
DIGESTS = ROOT / "tests" / "data" / "output_digest.txt"

sys.path.insert(0, str(ROOT / "perfbench"))
from run import THREAD_VARS  # noqa: E402  the benchmark's BLAS thread variables


def run_script(monkeypatch, name: str, *argv: str) -> int:
    """Load ``scripts/<name>.py`` as a module and call its ``main()``."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


TINY = ("--epochs", "2", "--dim", "16")


def test_run_pipeline_writes_its_artifacts(monkeypatch, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ("--n-posts", "24", *TINY, "--out-dir", str(out))
    assert run_script(monkeypatch, "run_pipeline", *argv) == 0
    written = {
        "corpus.jsonl",
        "annotated.jsonl",
        "model.json",
        "trace.json",
        "metrics.json",
        "contributions.csv",
        "distances.csv",
    }
    assert {p.name for p in out.iterdir()} == written
    assert all((out / name).stat().st_size > 0 for name in written)
    assert "done: artifacts in" in capsys.readouterr().out


def test_ablation_compare_reports_both_modes(monkeypatch, capsys):
    # 40 posts leave two held-out posts per outcome, so the within-class
    # distance has same-outcome pairs to average
    assert run_script(monkeypatch, "ablation_compare", "--n-posts", "40", *TINY) == 0
    printed = capsys.readouterr().out
    assert "=== penalty ON ===" in printed
    assert "=== penalty OFF ===" in printed
    assert "=== summary ===" in printed


def test_ablation_compare_refuses_a_split_without_same_outcome_pairs(monkeypatch, capsys):
    # 24 posts leave one held-out post per outcome; the check runs before
    # either mode trains, so no mode header is printed
    assert run_script(monkeypatch, "ablation_compare", "--n-posts", "24", *TINY) == 2
    captured = capsys.readouterr()
    assert "===" not in captured.out
    (message,) = captured.err.splitlines()
    assert "20 train / 4 test" in message


def test_output_digest_prints_the_same_lines_twice_in_one_process(monkeypatch, capsys):
    start = time.perf_counter()
    printed = []
    for _ in range(2):
        assert run_script(monkeypatch, "output_digest") == 0
        printed.append(capsys.readouterr().out.splitlines())
    assert time.perf_counter() - start < 10.0
    assert printed[0] == printed[1]
    header, *lines = printed[0]
    assert header.startswith("# numpy ")
    names = [line.split()[0] for line in lines]
    assert len(set(names)) == len(names)
    assert "forward.pass.log_probs" in names
    assert "finite_diff_check.block_errors" in names
    assert "loss.collapse" in names
    assert "train.collapse" in names
    assert "taxonomy.round_trip" in names
    assert "train.buckets" in names
    assert "compile_batch.triple" in names
    assert "forward.long_d64" in names
    assert {"annotate.frag1", "annotate.frag2", "annotate.frag3", "grid_search"} <= set(names)
    assert {"analysis.score_posts.rows", "analysis.distance_report"} <= set(names)
    assert {f"cosine_rows.frag{f}" for f in (1, 2, 3)} | {"compile_post.embeddings"} <= set(names)
    annotate_digests = {line.split()[1] for line in lines if line.startswith("annotate.")}
    assert len(annotate_digests) == 3
    assert all(len(line.split()[1]) == 64 for line in lines)


def test_outputs_match_the_committed_digests():
    """Every output is bit for bit the one committed, at one BLAS thread on
    the CPU kernel the committed header names."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digest.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    header, *want = DIGESTS.read_text(encoding="utf-8").splitlines()
    here, *got = run.stdout.splitlines()
    assert here == header, (
        f"the digests were recorded under {header!r}, this run is under {here!r}"
    )
    assert [line.split()[0] for line in got] == [line.split()[0] for line in want]
    for mine, theirs in zip(got, want):
        assert mine == theirs
