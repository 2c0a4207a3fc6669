import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from masc.checkpoint import load_checkpoint
from masc.cli import main
from masc.detector import BackboneSpec
from masc.evaluation import ScoredStep, compute_metrics
from masc.experiment import ExperimentConfig, MascSettings
from masc.simulator import FaultSpec
from masc.synthetic import make_anomaly_corpus, make_normal_corpus
from masc.trace import save_trajectories
from masc.training import TrainConfig

GOLDEN_DIR = Path(__file__).parent / "goldens"


class Built(Exception):
    """Raised by a stand-in to stop a command once it has built its config."""


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.jsonl"
    save_trajectories(str(path), make_normal_corpus(12, seed=21, T=4))
    return str(path)


@pytest.fixture(scope="module")
def labeled_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "labeled.jsonl"
    save_trajectories(str(path), make_anomaly_corpus(10, seed=22, T=4))
    return str(path)


TRAIN_FLAGS = ["--epochs", "4", "--lr", "1e-3", "--hidden", "24", "--dim", "16",
               "--seed", "5"]


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory, corpus_file):
    ckpt = str(tmp_path_factory.mktemp("ckpt") / "model.ckpt")
    report = str(tmp_path_factory.mktemp("ckpt") / "report.json")
    code = main(["train", "--traces", corpus_file, "--checkpoint", ckpt,
                 "--report", report] + TRAIN_FLAGS)
    assert code == 0
    code = main(["calibrate", "--checkpoint", ckpt, "--traces", corpus_file,
                 "--quantile", "0.99"])
    assert code == 0
    return ckpt, report


class TestParsing:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "simulate" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--nonsense"])
        assert exc.value.code == 2

    def test_missing_traces_exits_two_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--checkpoint", "x"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_simulate_has_no_jobs_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--jobs", "2"])
        assert exc.value.code == 2

    def test_simulate_has_no_agents_flag(self, capsys):
        # The fixture suite is always three agents; the sweep sizes its
        # topologies from the fixture roles.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--agents", "3"])
        assert exc.value.code == 2
        assert "--agents" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--target-agent", "first"),
                                             ("--step-selector", "late")])
    def test_bad_fault_selector_exits_two(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", flag, value])
        assert exc.value.code == 2
        assert "expected an index" in capsys.readouterr().err

    def test_unknown_topology_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--topology", "torus"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestIngest:
    def test_counts(self, corpus_file, capsys):
        assert main(["ingest", "--traces", corpus_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trajectories"] == 12
        assert report["steps"] == 48

    def test_canonicalize_roundtrip(self, corpus_file, tmp_path, capsys):
        out = str(tmp_path / "canon.jsonl")
        assert main(["ingest", "--traces", corpus_file, "--out", out]) == 0
        assert open(out, "rb").read() == open(corpus_file, "rb").read()

    def test_missing_file_exits_three(self, capsys):
        assert main(["ingest", "--traces", "/nonexistent.jsonl"]) == 3

    def test_invalid_line_exits_three(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"id":"x","query":"q","steps":[]}\n')
        assert main(["ingest", "--traces", str(path)]) == 3

    def test_non_utf8_line_exits_three_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"id":"caf\xe9","query":"q","steps":[{"role":"r","output":"o"}]}\n')
        assert main(["ingest", "--traces", str(path)]) == 3
        err = capsys.readouterr().err
        assert "invalid UTF-8" in err and "byte offset 10" in err
        assert "Traceback" not in err

    def test_directory_exits_three_without_traceback(self, tmp_path, capsys):
        assert main(["ingest", "--traces", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestTrain:
    def test_writes_checkpoint_and_report(self, trained_checkpoint):
        ckpt, report_path = trained_checkpoint
        assert os.path.exists(ckpt)
        report = json.loads(open(report_path).read())
        assert report["config"]["epochs"] == 4
        assert report["version"]
        assert len(report["epochs"]) == 4

    def test_profile_hc_lambda_default(self, corpus_file, tmp_path, capsys):
        ckpt = str(tmp_path / "hc.ckpt")
        code = main(["train", "--traces", corpus_file, "--checkpoint", ckpt,
                     "--profile", "hc", "--epochs", "1", "--hidden", "16",
                     "--dim", "8"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["lambda"] == 0.2
        assert report["config"]["lr"] == 1e-4

    def test_profile_auto_lambda_default(self, corpus_file, tmp_path, capsys):
        ckpt = str(tmp_path / "auto.ckpt")
        code = main(["train", "--traces", corpus_file, "--checkpoint", ckpt,
                     "--profile", "auto", "--epochs", "1", "--hidden", "16",
                     "--dim", "8"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["lambda"] == 0.3

    def test_config_file_precedence(self, corpus_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 2, "lr": 5e-4, "lambda": 0.7,
                                      "d_h": 16, "dim": 8}))
        ckpt = str(tmp_path / "cfg.ckpt")
        code = main(["train", "--traces", corpus_file, "--checkpoint", ckpt,
                     "--config", str(config), "--lr", "1e-3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["epochs"] == 2  # from file
        assert report["config"]["lr"] == 1e-3  # flag wins
        assert report["config"]["lambda"] == 0.7

    def test_unknown_config_key_exits_two(self, corpus_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"learning_rate": 1.0}))
        code = main(["train", "--traces", corpus_file, "--checkpoint",
                     str(tmp_path / "x.ckpt"), "--config", str(config)])
        assert code == 2

    def test_malformed_config_exits_two(self, corpus_file, tmp_path, capsys):
        cases = {
            "broken.json": '{"epochs": 2,',
            "broken.toml": "epochs = = 2",
            "list.json": "[1, 2]",
            "epochs.json": '{"epochs": "ten"}',
            "epochs_bool.json": '{"epochs": true}',
            "lr.json": '{"lr": "x"}',
            "dim.json": '{"dim": "8"}',
            "lambda.json": '{"lambda": null}',
            "d_h.json": '{"d_h": 2.5}',
            "with_gt.json": '{"with_gt": "yes"}',
            "layers.toml": 'layers = "2"',
        }
        for name, text in cases.items():
            config = tmp_path / name
            config.write_text(text)
            code = main(["train", "--traces", corpus_file, "--checkpoint",
                         str(tmp_path / "x.ckpt"), "--config", str(config)])
            assert code == 2, name
            assert "error:" in capsys.readouterr().err

    def test_toml_config_without_tomllib_exits_two(
        self, corpus_file, tmp_path, capsys, monkeypatch
    ):
        # Python 3.10 has no tomllib; an import of a None entry fails the same way.
        monkeypatch.setitem(sys.modules, "tomllib", None)
        config = tmp_path / "settings.toml"
        config.write_text("epochs = 2\n")
        ckpt = tmp_path / "x.ckpt"
        assert main(["train", "--traces", corpus_file, "--checkpoint", str(ckpt),
                     "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Python 3.11" in err
        assert "Traceback" not in err
        assert not ckpt.exists()

    def test_out_of_range_config_exits_two(self, corpus_file, tmp_path, capsys):
        for name, text in {"epochs.json": '{"epochs": 0}', "lr.json": '{"lr": 0}',
                           "lambda.json": '{"lambda": -1}'}.items():
            config = tmp_path / name
            config.write_text(text)
            code = main(["train", "--traces", corpus_file, "--checkpoint",
                         str(tmp_path / "x.ckpt"), "--config", str(config)])
            assert code == 2, name
            assert "error:" in capsys.readouterr().err

    def test_non_finite_config_exits_two_without_training(
        self, corpus_file, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("train() ran on a rejected config")

        monkeypatch.setattr("masc.cli.train", no_training)
        for name, text in {"lr.json": '{"lr": NaN}', "wd.json": '{"weight_decay": Infinity}',
                           "lambda.json": '{"lambda": -Infinity}'}.items():
            config = tmp_path / name
            config.write_text(text)
            ckpt = tmp_path / "x.ckpt"
            code = main(["train", "--traces", corpus_file, "--checkpoint", str(ckpt),
                         "--config", str(config)])
            assert code == 2, name
            assert "must be finite" in capsys.readouterr().err
            assert not ckpt.exists()

    @staticmethod
    def _config(monkeypatch, corpus_file, tmp_path, argv) -> TrainConfig:
        def stop(cfg, trajectories):
            raise Built(cfg)

        monkeypatch.setattr("masc.cli.train", stop)
        with pytest.raises(Built) as exc:
            main(["train", "--traces", corpus_file, "--checkpoint",
                  str(tmp_path / "x.ckpt")] + argv)
        return exc.value.args[0]

    def test_no_flags_build_the_dataclass_defaults(self, corpus_file, tmp_path,
                                                   monkeypatch):
        defaults = TrainConfig()
        assert self._config(monkeypatch, corpus_file, tmp_path, []) == replace(
            defaults, backbone=BackboneSpec(hidden_dim=defaults.d_h, seed=defaults.seed)
        )

    def test_flags_override_the_dataclass_defaults(self, corpus_file, tmp_path,
                                                   monkeypatch):
        cfg = self._config(monkeypatch, corpus_file, tmp_path, [
            "--profile", "auto", "--layers", "3", "--dim", "12", "--seed", "4",
        ])
        assert (cfg.epochs, cfg.lr, cfg.lam, cfg.d_h, cfg.seed) == (5, 5e-5, 0.3, 384, 4)
        assert cfg.embedder.dimension == 12
        assert cfg.backbone == BackboneSpec(hidden_dim=384, layers=3, seed=4)

    def test_lambda_survives_calibration(self, tmp_path, capsys):
        fixture = str(GOLDEN_DIR / "train_fixture.jsonl")
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--traces", fixture, "--checkpoint", ckpt, "--epochs", "1",
                     "--hidden", "8", "--dim", "8", "--lambda", "0.3"]) == 0
        assert main(["calibrate", "--checkpoint", ckpt, "--traces", fixture]) == 0
        model, calibration = load_checkpoint(ckpt)
        assert (model.lam, calibration.quantile) == (0.3, 0.99)

    def test_out_of_range_quantile_exits_two(self, trained_checkpoint, corpus_file,
                                             tmp_path, capsys):
        ckpt, _ = trained_checkpoint
        out = tmp_path / "calibrated.ckpt"
        assert main(["calibrate", "--checkpoint", ckpt, "--traces", corpus_file,
                     "--quantile", "1.5", "--out", str(out)]) == 2
        assert "quantile" in capsys.readouterr().err
        assert not out.exists()

    def test_golden_digest(self, tmp_path, capsys):
        """SHA-256 of the payload (``train_digest.txt``) and of the whole
        file, header included (``checkpoint_digest.txt``), that ``masc
        train`` writes for the committed fixture; the digests are committed,
        so a missing file fails."""
        fixture = GOLDEN_DIR / "train_fixture.jsonl"
        goldens = [GOLDEN_DIR / name for name in ("train_digest.txt", "checkpoint_digest.txt")]
        for path in (fixture, *goldens):
            assert path.exists(), f"missing {path}"
        ckpt = tmp_path / "golden.ckpt"
        assert main(["train", "--traces", str(fixture), "--checkpoint", str(ckpt),
                     "--epochs", "3", "--lr", "1e-3", "--hidden", "16",
                     "--dim", "8", "--seed", "13"]) == 0
        payload = json.loads(capsys.readouterr().out)["checkpoint_digest"]
        whole = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        assert [payload, whole] == [path.read_text().strip() for path in goldens]


class TestScore:
    def test_csv_shape_and_determinism(self, trained_checkpoint, corpus_file, tmp_path):
        ckpt, _ = trained_checkpoint
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["score", "--checkpoint", ckpt, "--traces", corpus_file,
                     "--out", out1]) == 0
        assert main(["score", "--checkpoint", ckpt, "--traces", corpus_file,
                     "--out", out2]) == 0
        a, b = open(out1, "rb").read(), open(out2, "rb").read()
        assert a == b
        lines = a.decode().strip().split("\n")
        assert lines[0] == "trajectory_id,t,score,recon_term,proto_term,flagged"
        assert len(lines) - 1 == 12 * 4  # sum of T_i

    def test_out_to_a_directory_exits_three_without_traceback(
        self, trained_checkpoint, corpus_file, tmp_path, capsys
    ):
        ckpt, _ = trained_checkpoint
        assert main(["score", "--checkpoint", ckpt, "--traces", corpus_file,
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_empty_trace_file_exits_three(self, trained_checkpoint, tmp_path, capsys):
        ckpt, _ = trained_checkpoint
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert main(["score", "--checkpoint", ckpt, "--traces", str(empty)]) == 3
        assert "no trajectories" in capsys.readouterr().err

    def test_golden_digest(self, tmp_path, capsys):
        """SHA-256 of the score CSV of a checkpoint trained on the committed
        fixture with the training golden's flags, calibrated at the median;
        the digest is committed, so a missing file fails."""
        fixture = str(GOLDEN_DIR / "train_fixture.jsonl")
        golden = GOLDEN_DIR / "score_digest.txt"
        assert golden.exists(), f"missing {golden}"
        ckpt, out = str(tmp_path / "golden.ckpt"), tmp_path / "scores.csv"
        assert main(["train", "--traces", fixture, "--checkpoint", ckpt,
                     "--epochs", "3", "--lr", "1e-3", "--hidden", "16",
                     "--dim", "8", "--seed", "13"]) == 0
        assert main(["calibrate", "--checkpoint", ckpt, "--traces", fixture,
                     "--quantile", "0.5"]) == 0
        assert main(["score", "--checkpoint", ckpt, "--traces", fixture,
                     "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == golden.read_text().strip()

    def test_corrupt_checkpoint_exits_two(self, tmp_path, corpus_file, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert main(["score", "--checkpoint", str(bad), "--traces", corpus_file]) == 2


class TestEval:
    def test_checkpoint_mode_metrics(self, trained_checkpoint, labeled_file,
                                     tmp_path, capsys):
        ckpt, _ = trained_checkpoint
        out = str(tmp_path / "metrics.json")
        hist = str(tmp_path / "hist.csv")
        assert main(["eval", "--checkpoint", ckpt, "--traces", labeled_file,
                     "--out", out, "--hist", hist, "--bins", "6"]) == 0
        metrics = json.loads(open(out).read())
        assert metrics["n_steps"] == 40
        assert 0.0 <= metrics["auc_roc"] <= 1.0
        header = open(hist).readline().strip()
        assert header == "bin_lo,bin_hi,normal_count,error_count"

    def test_scores_mode_matches_module(self, trained_checkpoint, labeled_file,
                                        tmp_path, capsys):
        ckpt, _ = trained_checkpoint
        csv_path = str(tmp_path / "scores.csv")
        assert main(["score", "--checkpoint", ckpt, "--traces", labeled_file,
                     "--out", csv_path]) == 0
        out = str(tmp_path / "metrics.json")
        assert main(["eval", "--scores", csv_path, "--traces", labeled_file,
                     "--out", out]) == 0
        via_cli = json.loads(open(out).read())

        import csv as csv_mod

        from masc.trace import load_trajectories

        labels = {
            (t.id, i): s.label
            for t in load_trajectories(labeled_file)
            for i, s in enumerate(t.steps, start=1)
        }
        rows = []
        with open(csv_path, newline="") as fh:
            for row in csv_mod.DictReader(fh):
                rows.append(
                    ScoredStep(
                        trajectory_id=row["trajectory_id"], t=int(row["t"]),
                        score=float(row["score"]),
                        label=labels[(row["trajectory_id"], int(row["t"]))],
                        flagged=bool(int(row["flagged"])),
                    )
                )
        direct = compute_metrics(rows)
        assert via_cli["auc_roc"] == pytest.approx(direct.auc_roc, abs=1e-12)
        assert via_cli["step_accuracy"] == pytest.approx(direct.step_accuracy)

    def test_scores_mode_reads_ids_with_commas_and_quotes(
        self, trained_checkpoint, tmp_path, capsys
    ):
        ckpt, _ = trained_checkpoint
        ids = ["run,0", 'say "hi"', "plain-2"]
        traces = str(tmp_path / "odd_ids.jsonl")
        corpus = make_anomaly_corpus(3, seed=23, T=4)
        save_trajectories(traces, [replace(t, id=i) for t, i in zip(corpus, ids)])
        csv_path = str(tmp_path / "scores.csv")
        assert main(["score", "--checkpoint", ckpt, "--traces", traces,
                     "--out", csv_path]) == 0
        lines = open(csv_path, "rb").read().decode().split("\n")
        assert lines[1].startswith('"run,0",1,')
        assert lines[5].startswith('"say ""hi""",1,')
        assert lines[9].startswith("plain-2,1,")
        via_csv, via_ckpt = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["eval", "--scores", csv_path, "--traces", traces,
                     "--out", via_csv]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--traces", traces,
                     "--out", via_ckpt]) == 0
        a, b = json.loads(open(via_csv).read()), json.loads(open(via_ckpt).read())
        assert a["n_steps"] == 12
        assert a["auc_roc"] == b["auc_roc"]

    def test_checkpoint_mode_scores_as_score_does(self, tmp_path):
        """With a checkpoint calibrated away from alpha = beta = 1, scoring
        inside eval and scoring with `masc score` give the same metrics."""
        normal, labeled = str(tmp_path / "normal.jsonl"), str(tmp_path / "labeled.jsonl")
        save_trajectories(normal, make_normal_corpus(30, seed=1, T=6))
        save_trajectories(labeled, make_anomaly_corpus(20, seed=2, T=6))
        ckpt, scores = str(tmp_path / "model.ckpt"), str(tmp_path / "scores.csv")
        assert main(["train", "--traces", normal, "--checkpoint", ckpt,
                     "--report", str(tmp_path / "report.json"), "--epochs", "2",
                     "--lr", "1e-3", "--hidden", "32", "--dim", "16", "--seed", "1"]) == 0
        assert main(["calibrate", "--checkpoint", ckpt, "--traces", normal,
                     "--alpha", "3", "--beta", "0.5"]) == 0
        assert main(["score", "--checkpoint", ckpt, "--traces", labeled,
                     "--out", scores]) == 0
        outputs = []
        for source in (["--scores", scores], ["--checkpoint", ckpt]):
            out, hist = tmp_path / "metrics.json", tmp_path / "hist.csv"
            assert main(["eval", "--traces", labeled, "--out", str(out),
                         "--hist", str(hist)] + source) == 0
            outputs.append((json.loads(out.read_text()), hist.read_text()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text, message", [
        ("trajectory_id,t,flagged\nx,1,0\n", "missing column(s) score"),
        ("trajectory_id,t,score,flagged\nx,one,0.5,0\n", ":2: missing or non-numeric"),
        ("trajectory_id,t,score,flagged\nx,1,high,0\n", ":2: missing or non-numeric"),
        ("trajectory_id,t,score,flagged\nx,1\n", ":2: missing or non-numeric"),
    ], ids=["missing column", "non-numeric t", "non-numeric score", "short row"])
    def test_malformed_scores_csv_exits_three(self, labeled_file, tmp_path, capsys,
                                              text, message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        assert main(["eval", "--scores", str(csv_path), "--traces", labeled_file]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_unlabeled_data_exits_three(self, trained_checkpoint, corpus_file, capsys):
        ckpt, _ = trained_checkpoint
        assert main(["eval", "--checkpoint", ckpt, "--traces", corpus_file]) == 3

    def test_needs_scores_or_checkpoint(self, labeled_file, capsys):
        assert main(["eval", "--traces", labeled_file]) == 2

    def test_perfect_separation_fixture(self, tmp_path, capsys):
        # hand-written score CSV with perfect separation -> auc 1.0
        traces = tmp_path / "t.jsonl"
        save_trajectories(str(traces), make_anomaly_corpus(4, seed=3, T=3))
        from masc.trace import load_trajectories

        rows = ["trajectory_id,t,score,recon_term,proto_term,flagged"]
        for t in load_trajectories(str(traces)):
            for i, s in enumerate(t.steps, start=1):
                score = 5.0 if s.label == 1 else 0.5
                rows.append(f"{t.id},{i},{score},{score},0.0,{int(s.label == 1)}")
        csv_path = tmp_path / "scores.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        assert main(["eval", "--scores", str(csv_path), "--traces", str(traces)]) == 0
        assert json.loads(capsys.readouterr().out)["auc_roc"] == 1.0


class TestDiag:
    def test_outputs_distances_and_histogram(self, labeled_file, capsys):
        assert main(["diag", "--traces", labeled_file, "--bins", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["raw"]["inter"] > 0
        assert payload["raw"]["intra"] > 0
        assert len(payload["error_position_histogram"]) == 4
        assert sum(payload["error_position_histogram"]) == 10

    def test_unlabeled_exits_three(self, corpus_file, capsys):
        assert main(["diag", "--traces", corpus_file]) == 3


class TestSimulate:
    @staticmethod
    def _config(monkeypatch, argv) -> ExperimentConfig:
        def stop(config):
            raise Built(config)

        monkeypatch.setattr("masc.cli.batch_experiment", stop)
        with pytest.raises(Built) as exc:
            main(["simulate"] + argv)
        return exc.value.args[0]

    def test_no_sweep_flags_build_the_dataclass_defaults(self, monkeypatch):
        assert self._config(monkeypatch, []) == ExperimentConfig()

    def test_sweep_flags_reach_the_config(self, monkeypatch):
        config = self._config(monkeypatch, [
            "--topology", "chain", "--masc", "off", "--fixtures", "7", "--seed", "3",
            "--target-agent", "random", "--step-selector", "2",
            "--corruption", "scramble", "--epochs", "9", "--dim", "16",
            "--delta", "inf",
        ])
        assert config == ExperimentConfig(
            topologies=("chain",), n_fixtures=7, seed=3, with_masc_cells=False,
            fault=FaultSpec(target_agent="random", step_selector=2,
                            corruption="scramble"),
            masc=MascSettings(epochs=9, d_e=16, delta_override=float("inf")),
        )

    @pytest.mark.parametrize("flags", [
        ["--quantile", "1.5"],
        ["--fixtures", "0"],
        ["--target-agent", "0", "--step-selector", "2"],
    ], ids=["quantile", "no fixtures", "fixed step misses the target"])
    def test_out_of_range_setting_exits_two_before_the_sweep(self, monkeypatch,
                                                             capsys, flags):
        def sweep(config):
            raise AssertionError("the sweep started")

        monkeypatch.setattr("masc.cli.batch_experiment", sweep)
        assert main(["simulate", *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_clean_chain_accuracy_one(self, tmp_path, capsys):
        out = str(tmp_path / "sim.json")
        assert main(["simulate", "--topology", "chain", "--fault", "off",
                     "--masc", "off", "--fixtures", "5", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["cells"]["chain/clean/off"]["accuracy"] == 1.0
        assert payload["cells"]["chain/clean/off"]["n_runs"] == 5

    def test_threshold_override_is_echoed_only_when_set(self, tmp_path):
        common = ["--topology", "chain", "--fault", "off", "--masc", "on",
                  "--fixtures", "2", "--epochs", "1", "--dim", "8", "--hidden", "8"]
        echoes = []
        for extra in ([], ["--delta", "inf"]):
            out = tmp_path / "sim.json"
            assert main(["simulate", "--out", str(out)] + common + extra) == 0
            echoes.append(json.loads(out.read_text())["config"]["masc"])
        calibrated, overridden = echoes
        assert "delta_override" not in calibrated
        assert overridden.pop("delta_override") == float("inf")
        assert overridden == calibrated

    def test_masc_delta_inf_equals_masc_off(self, tmp_path):
        common = ["--topology", "chain", "--fixtures", "4", "--seed", "2",
                  "--epochs", "30", "--dim", "32", "--hidden", "64"]
        out_off = str(tmp_path / "off.json")
        dump_off = str(tmp_path / "off.jsonl")
        assert main(["simulate", "--fault", "on", "--masc", "off", "--out", out_off,
                     "--dump-traces", dump_off] + common) == 0
        out_inf = str(tmp_path / "inf.json")
        dump_inf = str(tmp_path / "inf.jsonl")
        assert main(["simulate", "--fault", "on", "--masc", "on", "--delta", "inf",
                     "--out", out_inf, "--dump-traces", dump_inf] + common) == 0
        off = json.loads(open(out_off).read())["cells"]["chain/faulted/off"]
        inf = json.loads(open(out_inf).read())["cells"]["chain/faulted/masc"]
        assert inf["accuracy"] == off["accuracy"]
        assert inf["interventions"] == 0
        # identical trajectories modulo the cell prefix in ids
        def strip(path, cell):
            return [
                line.replace(cell, "CELL", 1)
                for line in open(path).read().splitlines()
                if cell in line
            ]

        assert strip(dump_off, "chain/faulted/off") == strip(dump_inf, "chain/faulted/masc")

    def test_golden_digest(self, tmp_path):
        """SHA-256 of the JSON, CSV and --dump-traces bytes, in that order, of
        a small sweep over every cell; the digest is committed, so a missing
        file fails."""
        golden = GOLDEN_DIR / "simulate_digest.txt"
        assert golden.exists(), f"missing {golden}"
        paths = [tmp_path / name for name in ("sim.json", "cells.csv", "runs.jsonl")]
        assert main(["simulate", "--fixtures", "6", "--seed", "5", "--epochs", "20",
                     "--dim", "16", "--hidden", "32", "--out", str(paths[0]),
                     "--csv", str(paths[1]), "--dump-traces", str(paths[2])]) == 0
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
        assert digest == golden.read_text().strip()

    @pytest.mark.parametrize("flags", [
        ["--topology", "random", "--fault", "off", "--masc", "off"],
        ["--fault", "on", "--masc", "both"],
        ["--fault", "both", "--masc", "on"],
    ], ids=["random clean off", "faulted only", "masc only"])
    def test_dump_holds_only_the_shown_cells(self, tmp_path, flags):
        out, dump = tmp_path / "sim.json", tmp_path / "runs.jsonl"
        assert main(["simulate", "--fixtures", "3", "--epochs", "5", "--dim", "16",
                     "--hidden", "32", "--out", str(out), "--dump-traces", str(dump)]
                    + flags) == 0
        shown = set(json.loads(out.read_text())["cells"])
        dumped = {json.loads(line)["id"].rsplit("/", 1)[0]
                  for line in dump.read_text().splitlines()}
        assert dumped == shown

    def test_csv_report(self, tmp_path):
        csv_path = str(tmp_path / "cells.csv")
        assert main(["simulate", "--topology", "chain", "--fault", "off",
                     "--masc", "off", "--fixtures", "3",
                     "--out", str(tmp_path / "r.json"), "--csv", csv_path]) == 0
        lines = open(csv_path).read().strip().split("\n")
        assert lines[0].startswith("topology,condition")
        assert len(lines) == 2
