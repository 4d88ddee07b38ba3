"""End-to-end command-line behavior: pipelines, exit codes, determinism."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from ksat import analysis
from ksat.annotation import default_params
from ksat.cli import run
from ksat.corpus import Dataset, Post, load_jsonl, save_jsonl
from ksat.embeddings import EmbeddingConfig
from ksat.knowledge import LAYER_ORDER, Outcome, default_tree, tree_to_dict
from ksat import model as model_module
from ksat.model import KsatModel, forward, load_model, save_model


def invoke(*argv: str) -> int:
    return run(list(argv))


class TestSynth:
    def test_four_posts_cover_every_outcome(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert invoke("synth", "--n", "4", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        golds = [json.loads(line)["gold"] for line in lines]
        assert sorted(golds) == sorted(o.value for o in LAYER_ORDER)
        assert str(out) in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert invoke("synth", "--n", "6", "--seed", "3", "--out", str(a)) == 0
        assert invoke("synth", "--n", "6", "--seed", "3", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_corpus(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert invoke("synth", "--n", "6", "--seed", "1", "--out", str(a)) == 0
        assert invoke("synth", "--n", "6", "--seed", "2", "--out", str(b)) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert invoke("synth", "--quiet", "--n", "4", "--out", str(out)) == 0
        assert capsys.readouterr().out == ""


class TestAnnotate:
    @pytest.fixture()
    def corpus_path(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        assert invoke("synth", "--n", "8", "--seed", "5", "--out", str(path)) == 0
        return path

    def test_explicit_thetas_annotate_every_sentence(self, tmp_path, corpus_path):
        out = tmp_path / "annotated.jsonl"
        code = invoke(
            "annotate",
            "--data", str(corpus_path),
            "--out", str(out),
            "--thetas", "0.2,0.2,0.2",
            "--dim", "16",
        )
        assert code == 0
        dataset = load_jsonl(out)
        for post in dataset.posts:
            assert post.sentence_presence is not None
            assert len(post.sentence_presence) == len(post.sentences)

    def test_rerun_is_byte_identical(self, tmp_path, corpus_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        args = ["--data", str(corpus_path), "--thetas", "0.1,0.1,0.1", "--dim", "16"]
        assert invoke("annotate", *args, "--out", str(a)) == 0
        assert invoke("annotate", *args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_range_theta_is_a_usage_error(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "annotated.jsonl"
        code = invoke(
            "annotate",
            "--data", str(corpus_path),
            "--out", str(out),
            "--thetas", "1.5,0,0",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("ksat: error:")
        assert not out.exists()

    def test_malformed_thetas_string_is_a_usage_error(self, tmp_path, corpus_path):
        code = invoke(
            "annotate",
            "--data", str(corpus_path),
            "--out", str(tmp_path / "x.jsonl"),
            "--thetas", "0.2,oops,0.2",
        )
        assert code == 1

    def test_grid_search_and_thetas_are_mutually_exclusive(self, tmp_path, corpus_path):
        code = invoke(
            "annotate",
            "--data", str(corpus_path),
            "--out", str(tmp_path / "x.jsonl"),
            "--grid-search",
            "--thetas", "0,0,0",
        )
        assert code == 1

    def test_frag_size_without_thetas_uses_the_default_thetas(self, tmp_path, corpus_path):
        default, chosen = tmp_path / "default.jsonl", tmp_path / "chosen.jsonl"
        explicit = tmp_path / "explicit.jsonl"
        args = ["--data", str(corpus_path), "--dim", "16"]
        thetas = ",".join(repr(t) for t in default_params().thetas)
        assert invoke("annotate", *args, "--out", str(default)) == 0
        assert invoke("annotate", *args, "--frag-size", "3", "--out", str(chosen)) == 0
        assert invoke(
            "annotate", *args, "--thetas", thetas, "--frag-size", "3", "--out", str(explicit)
        ) == 0
        assert chosen.read_bytes() == explicit.read_bytes()
        assert chosen.read_bytes() != default.read_bytes()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--grid-search", "--frag-size", "1"], "--frag-size"),
            (["--theta-step", "0.5"], "--theta-step"),
            (["--thetas", "0,0,0", "--theta-step", "0.5"], "--theta-step"),
        ],
    )
    def test_a_flag_that_would_be_ignored_is_a_usage_error(
        self, tmp_path, corpus_path, capsys, flags, named
    ):
        out = tmp_path / "x.jsonl"
        code = invoke("annotate", "--data", str(corpus_path), "--out", str(out), *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ksat: error:") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_non_finite_theta_step_is_a_usage_error(self, tmp_path, corpus_path, capsys, step):
        out = tmp_path / "x.jsonl"
        code = invoke(
            "annotate",
            "--data", str(corpus_path),
            "--out", str(out),
            "--grid-search",
            "--theta-step", step,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ksat: error:") and "theta_step" in err
        assert not out.exists()

    def test_a_lattice_too_large_to_allocate_is_an_error(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "x.jsonl"
        code = invoke(
            "annotate",
            "--data", str(corpus_path),
            "--out", str(out),
            "--grid-search",
            "--theta-step", "1e-12",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ksat: error:") and "theta_step" in err
        assert "candidates" in err
        assert not out.exists()

    def test_grid_search_reports_selected_parameters(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "annotated.jsonl"
        code = invoke(
            "annotate",
            "--data", str(corpus_path),
            "--out", str(out),
            "--grid-search",
            "--theta-step", "1.0",
            "--dim", "16",
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "thetas=" in stdout and "frag_size=" in stdout
        assert out.exists()

    def test_missing_input_file_is_a_data_error(self, tmp_path):
        code = invoke(
            "annotate",
            "--data", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2


@pytest.fixture()
def annotated_path(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    annotated = tmp_path / "annotated.jsonl"
    assert invoke("synth", "--n", "12", "--seed", "4", "--out", str(corpus)) == 0
    assert (
        invoke(
            "annotate",
            "--data", str(corpus),
            "--out", str(annotated),
            "--thetas", "0.2,0.2,0.2",
            "--dim", "16",
        )
        == 0
    )
    return annotated


class TestTrainEvalReport:
    def test_full_pipeline(self, tmp_path, annotated_path, capsys):
        model_path = tmp_path / "model.json"
        trace_path = tmp_path / "trace.json"
        code = invoke(
            "train",
            "--data", str(annotated_path),
            "--out", str(model_path),
            "--epochs", "5",
            "--no-kg-bias",
            "--dim", "16",
            "--trace-out", str(trace_path),
        )
        assert code == 0
        assert model_path.exists()
        trace = json.loads(trace_path.read_text())
        assert len(trace["losses"]) == 6
        assert len(trace["alphas"]) == 6

        metrics_path = tmp_path / "metrics.json"
        code = invoke(
            "eval",
            "--data", str(annotated_path),
            "--model", str(model_path),
            "--out", str(metrics_path),
            "--dim", "16",
        )
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert 0.0 <= metrics["auc"] <= 1.0
        assert metrics["n_posts"] == 12
        assert "accuracy=" in capsys.readouterr().out

        report_dir = tmp_path / "reports"
        code = invoke(
            "report",
            "--data", str(annotated_path),
            "--model", str(model_path),
            "--out-dir", str(report_dir),
            "--dim", "16",
        )
        assert code == 0
        contributions = (report_dir / "contributions.csv").read_text().splitlines()
        assert contributions[0] == (
            "layer,alpha,knowledge_logit_mean,data_logit_mean,kg_bias_mean"
        )
        assert len(contributions) == 5  # header + one row per layer
        with open(report_dir / "distances.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12 * 11 // 2
        assert set(rows[0]) == {"post_a", "post_b", "d_zcls", "d_zkcls", "close_flag"}

    def test_training_is_deterministic_across_reruns(self, tmp_path, annotated_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = [
            "--data", str(annotated_path),
            "--epochs", "3",
            "--no-kg-bias",
            "--dim", "16",
        ]
        assert invoke("train", *args, "--out", str(a)) == 0
        assert invoke("train", *args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_missing_model_file_is_a_data_error(self, tmp_path, annotated_path):
        code = invoke(
            "eval",
            "--data", str(annotated_path),
            "--model", str(tmp_path / "absent.json"),
        )
        assert code == 2

    def test_an_integer_past_the_digit_limit_is_a_data_error(self, tmp_path, annotated_path, capsys):
        # Python parses no int of more than 4,300 digits, with a plain
        # ValueError that once left `ksat` on exit 1 without the file's name
        lines = annotated_path.read_text().splitlines()
        lines[1] = lines[1][:-1] + ', "score": 1' + "0" * 5000 + "}"
        annotated_path.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "model.json"
        code = invoke(
            "train", "--data", str(annotated_path), "--out", str(model_path),
            "--epochs", "1", "--dim", "16",
        )
        assert code == 2
        assert f"{annotated_path}:2: invalid JSON" in capsys.readouterr().err
        assert not model_path.exists()

    def test_a_corpus_that_is_not_utf8_is_a_data_error(self, tmp_path, annotated_path, capsys):
        lines = annotated_path.read_bytes().splitlines()
        lines[1] = lines[1].replace(b'"sentences": ["', b'"sentences": ["\xff', 1)
        annotated_path.write_bytes(b"\n".join(lines) + b"\n")
        model_path = tmp_path / "model.json"
        code = invoke(
            "train", "--data", str(annotated_path), "--out", str(model_path),
            "--epochs", "1", "--dim", "16",
        )
        assert code == 2
        assert f"{annotated_path}:2: not UTF-8 text" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("bad", [0.7, 1.5, "1", [1]], ids=repr)
    def test_non_binary_presence_is_a_data_error(self, tmp_path, annotated_path, capsys, bad):
        lines = annotated_path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["sentence_presence"][0][0] = bad
        lines[1] = json.dumps(obj)
        annotated_path.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "model.json"
        code = invoke(
            "train", "--data", str(annotated_path), "--out", str(model_path),
            "--epochs", "1", "--dim", "16",
        )
        assert code == 2
        assert f"{annotated_path}:2:" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_is_a_usage_error(self, tmp_path, annotated_path, capsys, lr):
        model_path = tmp_path / "model.json"
        code = invoke(
            "train", "--data", str(annotated_path), "--out", str(model_path),
            "--epochs", "1", "--dim", "16", f"--lr={lr}",
        )
        assert code == 1
        assert "learning_rate must be finite and positive" in capsys.readouterr().err
        assert not model_path.exists()

    def test_eval_no_kg_bias_scores_a_penalty_on_model_with_the_penalty_off(
        self, tmp_path, annotated_path
    ):
        tree = default_tree()
        model_path = tmp_path / "model.json"
        model = KsatModel.initialize(
            tree, EmbeddingConfig(dimension=16), epsilon=1.0, value_scale=1.0
        )
        save_model(model, model_path)
        dataset = load_jsonl(annotated_path)
        loaded = load_model(model_path, tree)
        assert loaded.kg_bias_enabled
        penalty_on = analysis.compute_metrics(loaded, dataset)
        loaded.kg_bias_enabled = False
        penalty_off = analysis.compute_metrics(loaded, dataset)
        # the fixture is one on which the switch changes the metrics
        assert penalty_off.to_dict() != penalty_on.to_dict()
        metrics_path = tmp_path / "metrics.json"
        code = invoke(
            "eval", "--data", str(annotated_path), "--model", str(model_path),
            "--out", str(metrics_path), "--no-kg-bias",
        )
        assert code == 0
        assert json.loads(metrics_path.read_text()) == penalty_off.to_dict()

    def test_a_saved_default_taxonomy_gives_the_same_files(self, tmp_path):
        taxonomy = tmp_path / "taxonomy.json"
        taxonomy.write_text(json.dumps(tree_to_dict(default_tree())))
        written = {}
        for label, extra in (("packaged", ()), ("file", ("--taxonomy", str(taxonomy)))):
            out = tmp_path / label
            out.mkdir()
            steps = [
                ("synth", "--n", "8", "--seed", "2", "--out", str(out / "corpus.jsonl")),
                ("annotate", "--data", str(out / "corpus.jsonl"), "--thetas", "0.2,0.2,0.2",
                 "--out", str(out / "annotated.jsonl")),
                ("train", "--data", str(out / "annotated.jsonl"), "--epochs", "2",
                 "--out", str(out / "model.json")),
                ("eval", "--data", str(out / "annotated.jsonl"), "--model",
                 str(out / "model.json"), "--out", str(out / "metrics.json")),
            ]
            for step in steps:
                assert invoke(*step, "--dim", "16", "--quiet", *extra) == 0
            written[label] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(written["file"]) == 4
        assert written["file"] == written["packaged"]

    def test_a_taxonomy_with_a_fractional_context_id_is_a_data_error(self, tmp_path, capsys):
        data = tree_to_dict(default_tree())
        data["layer_contexts"]["IndicationOrNone"] = [0.5]
        taxonomy = tmp_path / "taxonomy.json"
        taxonomy.write_text(json.dumps(data))
        out = tmp_path / "corpus.jsonl"
        code = invoke("synth", "--n", "4", "--taxonomy", str(taxonomy), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert str(taxonomy) in err and "must be an int, got 0.5" in err
        assert not out.exists()

    def test_model_file_with_zero_epsilon_is_a_data_error(
        self, tmp_path, annotated_path, capsys
    ):
        model_path = tmp_path / "model.json"
        save_model(KsatModel.initialize(default_tree(), EmbeddingConfig(dimension=16)), model_path)
        data = json.loads(model_path.read_text())
        data["epsilon"] = 0
        model_path.write_text(json.dumps(data))
        code = invoke("eval", "--data", str(annotated_path), "--model", str(model_path))
        assert code == 2
        err = capsys.readouterr().err
        assert str(model_path) in err and "epsilon" in err

    @staticmethod
    def saturated_model(tmp_path, corrupt: bool = False):
        """An identity value projection in every layer: two sentences with
        identical concept flags sit at taxonomy distance zero, so the pair
        bias reaches the order of -1/epsilon and every outcome's raw product
        underflows to 0.0. `corrupt` puts a NaN into layer 1's readout in
        the saved file, which `save_model` refuses to write itself."""
        tree = default_tree()
        model = KsatModel.initialize(tree, EmbeddingConfig(dimension=8, seed=0), seed=0)
        for layer in model.layers:
            layer.w_value[:] = np.eye(8)
        model_path = tmp_path / "saturated.json"
        save_model(model, model_path)
        if corrupt:
            data = json.loads(model_path.read_text())
            data["layers"][1]["w_out"][0] = float("nan")
            model_path.write_text(json.dumps(data))
        posts = [
            Post(
                id=post_id,
                sentences=["wish to be dead.", sentence],
                gold=gold,
                sentence_presence=[flags, flags],
            )
            for post_id, sentence, gold, flags in (
                ("z", "a gun nearby.", Outcome.IDEATION_1, (1, 0, 0)),
                ("y", "pills in hand.", Outcome.BEHAVIOR_OR_ATTEMPT, (0, 0, 1)),
            )
        ]
        data_path = tmp_path / "data.jsonl"
        save_jsonl(Dataset(posts=posts), data_path)
        return model, posts, model_path, data_path

    def test_saturated_model_eval_ranks_in_log_space(self, tmp_path, capsys):
        model, posts, model_path, data_path = self.saturated_model(tmp_path)
        for post in posts:
            final, _ = forward(model, post)
            assert not final.any()
        code = invoke(
            "eval", "--data", str(data_path), "--model", str(model_path), "--dim", "8"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=") and " auc=" in out and out.endswith(" n=2\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_parameter_model_file_is_a_data_error(self, tmp_path, capsys):
        # the file is refused as it loads, before any post runs
        _, _, model_path, data_path = self.saturated_model(tmp_path, corrupt=True)
        code = invoke("eval", "--data", str(data_path), "--model", str(model_path))
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(model_path) in err and "layers[1].w_out" in err


class TestTooSmallCorpus:
    """A corpus with fewer posts than a command works on is a data error
    whose one line names the file and its post count."""

    @pytest.mark.parametrize(
        "command, n_posts",
        [("train", 0), ("eval", 0), ("grid-search", 0), ("report", 0), ("report", 1)],
    )
    def test_is_a_data_error(self, tmp_path, capsys, command, n_posts):
        corpus = tmp_path / "corpus.jsonl"
        assert invoke("synth", "--n", str(n_posts), "--out", str(corpus)) == 0
        model_path = tmp_path / "model.json"
        save_model(KsatModel.initialize(default_tree(), EmbeddingConfig(dimension=16)), model_path)
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--out", str(out)],
            "eval": ["eval", "--model", str(model_path), "--out", str(out)],
            "grid-search": ["annotate", "--grid-search", "--out", str(out)],
            "report": ["report", "--model", str(model_path), "--out-dir", str(out)],
        }[command]
        capsys.readouterr()
        assert invoke(*argv, "--data", str(corpus), "--dim", "16") == 2
        needed = 2 if command == "report" else 1
        assert capsys.readouterr().err == (
            f"ksat: error: {corpus} holds {n_posts} post(s); "
            f"this command needs at least {needed}\n"
        )
        assert not out.exists()  # `report` makes its directory only on success

    def test_an_empty_corpus_still_synthesizes_and_annotates(self, tmp_path):
        corpus, out = tmp_path / "corpus.jsonl", tmp_path / "annotated.jsonl"
        assert invoke("synth", "--n", "0", "--out", str(corpus)) == 0
        assert invoke("annotate", "--data", str(corpus), "--out", str(out)) == 0
        assert out.read_text() == ""


class TestEmbeddingTable:
    @staticmethod
    def write_table(path, data_path, skip=None):
        """A 4-dimensional row for every sentence id of the corpus but `skip`."""
        rng = np.random.default_rng(0)
        lines = []
        for post in load_jsonl(data_path).posts:
            for idx in range(len(post.sentences)):
                key = f"{post.id}:{idx}"
                if key != skip:
                    values = rng.standard_normal(4).tolist()
                    lines.append(" ".join([key, *map(repr, values)]))
        path.write_text("\n".join(lines) + "\n")
        return path

    def train(self, data_path, model_path, *extra):
        return invoke(
            "train", "--data", str(data_path), "--out", str(model_path),
            "--epochs", "2", "--no-kg-bias", "--dim", "4", *extra,
        )

    def evaluate(self, data_path, model_path, *extra):
        return invoke("eval", "--data", str(data_path), "--model", str(model_path), *extra)

    def test_training_with_a_table_makes_a_file_backed_model(self, tmp_path, annotated_path):
        table = self.write_table(tmp_path / "table.txt", annotated_path)
        model_path = tmp_path / "model.json"
        assert self.train(annotated_path, model_path, "--embeddings", str(table)) == 0
        saved = json.loads(model_path.read_text())
        assert saved["embedding"]["vocabulary_mode"] == "file-backed"
        assert self.evaluate(annotated_path, model_path, "--embeddings", str(table)) == 0

    def test_file_backed_model_needs_the_table_to_evaluate(self, tmp_path, annotated_path):
        table = self.write_table(tmp_path / "table.txt", annotated_path)
        model_path = tmp_path / "model.json"
        assert self.train(annotated_path, model_path, "--embeddings", str(table)) == 0
        assert self.evaluate(annotated_path, model_path) == 2

    def test_table_missing_a_sentence_id_is_a_data_error(self, tmp_path, annotated_path):
        skip = load_jsonl(annotated_path).posts[-1].id + ":0"
        table = self.write_table(tmp_path / "table.txt", annotated_path, skip=skip)
        code = self.train(annotated_path, tmp_path / "m.json", "--embeddings", str(table))
        assert code == 2

    def test_feature_hash_model_rejects_a_table(self, tmp_path, annotated_path):
        table = self.write_table(tmp_path / "table.txt", annotated_path)
        model_path = tmp_path / "model.json"
        assert self.train(annotated_path, model_path) == 0
        assert self.evaluate(annotated_path, model_path, "--embeddings", str(table)) == 2


class TestSavedModelGlobals:
    """The saved model fixes the embedding dimension and seed: ``eval`` and
    ``report`` reject an explicit ``--dim`` or ``--seed`` that differs."""

    @pytest.fixture()
    def model_path(self, tmp_path, annotated_path):
        path = tmp_path / "model.json"
        code = invoke(
            "train", "--data", str(annotated_path), "--out", str(path),
            "--epochs", "0", "--dim", "16", "--seed", "2",
        )
        assert code == 0
        return path

    @staticmethod
    def command(name, tmp_path, data_path, model_path):
        args = [name, "--data", str(data_path), "--model", str(model_path)]
        return args + (["--out-dir", str(tmp_path / "reports")] if name == "report" else [])

    @pytest.mark.parametrize("name", ["eval", "report"])
    @pytest.mark.parametrize("flag, value", [("--dim", "8"), ("--seed", "3")])
    def test_contradicting_flag_is_a_usage_error(
        self, tmp_path, annotated_path, model_path, capsys, name, flag, value
    ):
        argv = self.command(name, tmp_path, annotated_path, model_path)
        assert invoke(*argv, flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("ksat: error:")
        assert flag in err
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("name", ["eval", "report"])
    def test_matching_flags_are_accepted(self, tmp_path, annotated_path, model_path, name):
        argv = self.command(name, tmp_path, annotated_path, model_path)
        assert invoke(*argv, "--dim", "16") == 0
        assert invoke("--seed", "2", *argv, "--dim", "16") == 0


class TestGradcheck:
    def test_gradcheck_passes_on_the_default_fixture(self, capsys):
        assert invoke("gradcheck", "--seed", "0") == 0
        stdout = capsys.readouterr().out
        assert "gradcheck PASS" in stdout
        assert "max rel err" in stdout

    def test_a_wrong_penalty_gradient_fails_the_check(self, monkeypatch, capsys):
        # the forward's penalty doubled while the backward's is not: the
        # check sees it only if the fixture's penalty is nonzero
        penalty = model_module._penalty
        monkeypatch.setattr(model_module, "_penalty", lambda *args: 2.0 * penalty(*args))
        assert invoke("gradcheck", "--seed", "0") == 3
        assert "gradcheck FAIL" in capsys.readouterr().out


class TestUsageErrors:
    def test_no_command_prints_help_and_fails(self, capsys):
        assert run([]) == 1
        assert "COMMAND" in capsys.readouterr().out

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--n", "4", "--out", "x.jsonl", "--bogus"])
        assert exc.value.code == 1

    def test_negative_seed_rejected(self, tmp_path):
        code = invoke(
            "synth", "--seed", "-1", "--n", "4", "--out", str(tmp_path / "x.jsonl")
        )
        assert code == 1

    def test_global_flags_work_on_either_side_of_the_command(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert invoke("--seed", "9", "synth", "--n", "4", "--out", str(a)) == 0
        assert invoke("synth", "--seed", "9", "--n", "4", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
