"""Smoke tests: each demo script in ``scripts/`` runs to completion at a tiny size."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
