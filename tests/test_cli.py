import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masc import cli
from masc.checkpoint import load_checkpoint, save_checkpoint
from masc.cli import main
from masc.detector import BackboneSpec
from masc.embedding import EmbedderSpec, embed_trajectory
from masc.errors import MascError
from masc.evaluation import ScoredStep, compute_metrics
from masc.experiment import ExperimentConfig, MascSettings
from masc.fixtures import run_fixture
from masc.simulator import FaultSpec
from masc.synthetic import make_anomaly_corpus, make_normal_corpus
from masc.trace import load_trajectories, save_trajectories
from masc.training import TrainConfig, train

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


@pytest.fixture
def no_reads(monkeypatch):
    """Make every input read of a command fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("an input file was read")

    for name in ("load_trajectories", "load_checkpoint", "_scores_from_csv"):
        monkeypatch.setattr(cli, name, refuse)


def run_masc(argv: list[str], limit: int | None = None, **env: str) -> subprocess.CompletedProcess:
    """``masc argv`` in a child process whose environment adds ``env``. A
    ``limit`` caps, in the child only, the size of any file it writes: a
    write past it fails with EFBIG, as on a full disk."""
    child = "import sys\nfrom masc.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    if limit is not None:
        child = (f"import resource\nresource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
                 + child)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    ), **env)
    return subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          capture_output=True, timeout=120)


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

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--checkpoint", "m.ckpt", "--traces", "l.jsonl", "--hist", "h.csv",
          "--bins", "1", "--out", "e.json"], "bins"),
        (["eval", "--scores", "s.csv", "--traces", "l.jsonl", "--alpha", "0",
          "--beta", "5"], "--checkpoint"),
        (["diag", "--traces", "l.jsonl", "--bins", "0", "--out", "d.json"], "bins"),
    ], ids=["eval one bin", "eval alpha and beta with scores", "diag zero bins"])
    def test_bad_flag_exits_two_before_any_read(self, no_reads, tmp_path, monkeypatch,
                                                capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # nothing written

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

    def test_report_goes_to_a_text_only_stdout(self, corpus_file):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["ingest", "--traces", corpus_file]) == 0
        assert json.loads(out.getvalue())["steps"] == 48

    def test_canonicalize_roundtrip(self, corpus_file, tmp_path, capsys):
        out = str(tmp_path / "canon.jsonl")
        assert main(["ingest", "--traces", corpus_file, "--out", out]) == 0
        assert Path(out).read_bytes() == Path(corpus_file).read_bytes()

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

    def test_lone_surrogate_exits_three_before_writing(self, tmp_path, capsys):
        path, out = tmp_path / "surrogate.jsonl", tmp_path / "canon.jsonl"
        path.write_bytes(b'{"id":"x","query":"q","steps":[{"role":"r","output":"a\\ud800"}]}\n')
        assert main(["ingest", "--traces", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "step 1 output" in err and "Traceback" not in err
        assert not out.exists()

    def test_directory_exits_three_without_traceback(self, tmp_path, capsys):
        assert main(["ingest", "--traces", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestTrain:
    def test_writes_checkpoint_and_report(self, trained_checkpoint):
        ckpt, report_path = trained_checkpoint
        assert os.path.exists(ckpt)
        report = json.loads(Path(report_path).read_text())
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

    def test_report_config_is_a_config_file(self, corpus_file, tmp_path, capsys):
        """A report's ``config``, given back as ``--config``, trains the same
        checkpoint byte for byte."""
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        assert main(["train", "--traces", corpus_file, "--checkpoint", str(first),
                     "--epochs", "2", "--hidden", "12", "--dim", "6", "--seed", "9",
                     "--lambda", "0.4", "--layers", "1", "--lr", "2e-3"]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads(capsys.readouterr().out)["config"]))
        assert main(["train", "--traces", corpus_file, "--checkpoint", str(second),
                     "--config", str(config)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_lam_and_lambda_both_given_exits_two(self, corpus_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"lam": 0.1, "lambda": 0.9}))
        ckpt = tmp_path / "x.ckpt"
        code = main(["train", "--traces", corpus_file, "--checkpoint", str(ckpt),
                     "--config", str(config)])
        assert code == 2
        assert "both 'lam' and 'lambda'" in capsys.readouterr().err
        assert not ckpt.exists()

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

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"], ["--seed", str(2**32)], ["--weight-decay", "-1"],
    ], ids=["seed -1", "seed 2**32", "weight decay -1"])
    def test_out_of_range_flag_exits_two_without_training(
        self, corpus_file, tmp_path, capsys, monkeypatch, flags
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("train() ran on a rejected config")

        monkeypatch.setattr("masc.cli.train", no_training)
        assert main(["train", "--traces", corpus_file, "--checkpoint",
                     str(tmp_path / "x.ckpt"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @given(st.dictionaries(
        st.sampled_from(["epochs", "seed", "d_h", "layers", "dim", "lr", "weight_decay",
                         "lam", "lambda", "with_gt", "exclude_labeled_steps"]),
        st.recursive(
            st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3),
                                                                        inner, max_size=2),
            max_leaves=4,
        ),
        max_size=3,
    ))
    @settings(max_examples=150, deadline=None)
    def test_any_config_values_exit_two_or_reach_training(
        self, corpus_file, tmp_path_factory, settings_
    ):
        config = tmp_path_factory.getbasetemp() / "any_config.json"
        config.write_text(json.dumps(settings_))

        def stop(cfg, trajectories):
            raise Built(cfg)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("masc.cli.train", stop)
            try:
                code = main(["train", "--traces", corpus_file, "--checkpoint",
                             str(config.with_suffix(".ckpt")), "--config", str(config)])
            except Built:
                return
        assert code == 2

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

    def test_api_and_cli_build_the_same_default_backbone(self, tmp_path, capsys):
        """Both seed the frozen mixer with the run's seed."""
        fixture = str(GOLDEN_DIR / "train_fixture.jsonl")
        model, _ = train(
            TrainConfig(epochs=1, d_h=8, seed=5, embedder=EmbedderSpec(dimension=4)),
            load_trajectories(fixture),
        )
        assert main(["train", "--traces", fixture, "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--epochs", "1", "--hidden", "8", "--dim", "4", "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["checkpoint_digest"] == model.param_digest()

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
        a, b = Path(out1).read_bytes(), Path(out2).read_bytes()
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

    def test_repeated_trajectory_id_exits_three(self, trained_checkpoint, corpus_file,
                                                tmp_path, capsys):
        """Its rows would repeat (trajectory id, t) keys, which eval refuses."""
        ckpt, _ = trained_checkpoint
        corpus = load_trajectories(corpus_file)
        traces = tmp_path / "repeated.jsonl"
        save_trajectories(str(traces), corpus + [corpus[0]])
        out = tmp_path / "scores.csv"
        assert main(["score", "--checkpoint", ckpt, "--traces", str(traces),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{traces}:{len(corpus) + 1}: trajectory id repeats" in err
        assert not out.exists()

    def test_corrupt_checkpoint_exits_two(self, tmp_path, corpus_file, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert main(["score", "--checkpoint", str(bad), "--traces", corpus_file]) == 2


class TestWrites:
    LIMIT = 256  # bytes; each command below writes more

    @pytest.mark.parametrize("command", [
        "calibrate", "score", "ingest", "diag", "stdout", "train report directory",
        "train report missing", "eval out missing", "simulate out missing",
    ])
    def test_a_failed_write_keeps_the_old_file(
        self, trained_checkpoint, corpus_file, labeled_file, tmp_path, command
    ):
        """Under a file-size limit every write fails part way, and the file
        it was to replace keeps its old bytes, with no temporary file left.
        A pipe is no regular file: ``--out /dev/stdout`` writes it in place,
        where the limit does not apply. A command with several files, one of
        which cannot be written, writes none of them, and its error names
        the path it was given."""
        directory = tmp_path / "out"
        directory.mkdir()
        target = directory / "old"
        missing = str(tmp_path / "nonexistent" / "r.json")
        ckpt = trained_checkpoint[0]
        if command in ("calibrate", "train report directory"):  # an old checkpoint
            target.write_bytes(Path(ckpt).read_bytes())
            ckpt = str(target)
        else:
            target.write_bytes(b"old bytes\n" * 100)
        before = target.read_bytes()
        assert len(before) > self.LIMIT
        score = ["score", "--checkpoint", ckpt, "--traces", corpus_file, "--out"]
        train = ["train", "--traces", corpus_file, *TRAIN_FLAGS, "--checkpoint"]
        argv, unwritable = {
            "calibrate": (["calibrate", "--checkpoint", ckpt, "--traces", corpus_file], None),
            "score": (score + [str(target)], None),
            "ingest": (["ingest", "--traces", corpus_file, "--out", str(target)], None),
            "diag": (["diag", "--traces", labeled_file, "--out", str(target)], None),
            "stdout": (score + ["/dev/stdout"], None),
            "train report directory": (
                train + [ckpt, "--report", str(directory)], str(directory)),
            "train report missing": (
                train + [str(directory / "new.ckpt"), "--report", missing], missing),
            "eval out missing": (["eval", "--traces", labeled_file, "--checkpoint", ckpt,
                                  "--hist", str(target), "--out", missing], missing),
            "simulate out missing": (["simulate", "--masc", "off", "--fixtures", "2",
                                      "--csv", str(target), "--dump-traces",
                                      str(directory / "new.jsonl"), "--out", missing], missing),
        }[command]
        proc = run_masc(argv, limit=None if unwritable else self.LIMIT)
        if command == "stdout":
            assert proc.returncode == 0, proc.stderr
            expected = tmp_path / "scores.csv"
            assert main(score + [str(expected)]) == 0
            assert proc.stdout == expected.read_bytes()
        elif unwritable:
            assert proc.returncode == 3, proc.stderr
            assert repr(unwritable).encode() in proc.stderr
            assert b".tmp" not in proc.stderr
        else:
            assert proc.returncode == 3, proc.stderr
            assert b"File too large" in proc.stderr
        assert target.read_bytes() == before
        assert os.listdir(directory) == ["old"]

    def test_score_and_eval_read_and_write_utf8_under_any_locale(
        self, trained_checkpoint, tmp_path
    ):
        """A C locale with UTF-8 mode off, in a child only, makes ASCII the
        default encoding of open() and of stdout. PYTHONIOENCODING is set too,
        so that the caller's cannot make stdout UTF-8."""
        ckpt, _ = trained_checkpoint
        corpus = make_anomaly_corpus(3, seed=22, T=4)
        traces = tmp_path / "traces.jsonl"
        save_trajectories(str(traces), [replace(corpus[0], id="traj-é-日本"), *corpus[1:]])
        score = ["score", "--checkpoint", ckpt, "--traces", str(traces)]
        expected, out = tmp_path / "expected.csv", tmp_path / "scores.csv"
        assert main(score + ["--out", str(expected)]) == 0
        locale = dict(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                      PYTHONIOENCODING="ascii")
        runs = [
            run_masc(score + ["--out", str(out)], **locale),
            run_masc(score, **locale),
            run_masc(["eval", "--traces", str(traces), "--scores", str(out)], **locale),
        ]
        assert [proc.returncode for proc in runs] == [0, 0, 0], [p.stderr for p in runs]
        assert out.read_bytes() == runs[1].stdout == expected.read_bytes()
        assert "traj-é-日本".encode() in out.read_bytes()


class TestNonFiniteInput:
    """A NaN or infinite vector would make every later score NaN, and no
    threshold flags NaN; each way one can arrive ends in an error exit."""

    def test_non_finite_embedding_reply_exits_two(
        self, trained_checkpoint, corpus_file, stub_service, tmp_path, capsys
    ):
        class NonFinite(stub_service):
            def payload(self, path, body):
                reply = super().payload(path, body)
                reply["vectors"][-1][0] = math.inf
                return reply

        model, calibration = load_checkpoint(trained_checkpoint[0])
        with NonFinite(dimension=16) as stub:
            remote = replace(model, embedder=EmbedderSpec(
                kind="remote", dimension=16, endpoint=stub.endpoint, model_name="m"))
            ckpt = str(tmp_path / "remote.ckpt")
            save_checkpoint(remote, calibration, ckpt)
            assert main(["score", "--checkpoint", ckpt, "--traces", corpus_file]) == 2
            assert len(stub.requests) == 3  # retried, then TransportError
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err and "Traceback" not in err

    def test_non_finite_step_embedding_exits_three(
        self, trained_checkpoint, corpus_file, monkeypatch, capsys
    ):
        def with_nan(spec, trajectory, with_gt=False):
            q_vec, steps = embed_trajectory(spec, trajectory, with_gt=with_gt)
            steps[-1, 0] = math.nan
            return q_vec, steps

        monkeypatch.setattr(cli, "embed_trajectory", with_nan)
        assert main(["score", "--checkpoint", trained_checkpoint[0],
                     "--traces", corpus_file]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "NaN" in err and "Traceback" not in err


class TestEval:
    def test_checkpoint_mode_metrics(self, trained_checkpoint, labeled_file,
                                     tmp_path, capsys):
        ckpt, _ = trained_checkpoint
        out = str(tmp_path / "metrics.json")
        hist = str(tmp_path / "hist.csv")
        assert main(["eval", "--checkpoint", ckpt, "--traces", labeled_file,
                     "--out", out, "--hist", hist, "--bins", "6"]) == 0
        metrics = json.loads(Path(out).read_text())
        assert metrics["n_steps"] == 40
        assert 0.0 <= metrics["auc_roc"] <= 1.0
        header = Path(hist).read_text().splitlines()[0]
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
        via_cli = json.loads(Path(out).read_text())

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
        lines = Path(csv_path).read_bytes().decode().split("\n")
        assert lines[1].startswith('"run,0",1,')
        assert lines[5].startswith('"say ""hi""",1,')
        assert lines[9].startswith("plain-2,1,")
        via_csv, via_ckpt = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["eval", "--scores", csv_path, "--traces", traces,
                     "--out", via_csv]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--traces", traces,
                     "--out", via_ckpt]) == 0
        a, b = json.loads(Path(via_csv).read_text()), json.loads(Path(via_ckpt).read_text())
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
        ("trajectory_id,t,score,flagged\nx,1,nan,0\n", ":2: non-finite score nan"),
        ("trajectory_id,t,score,flagged\nx,1,0,0\nx,2,-inf,1\n",
         ":3: non-finite score -inf"),
        ("trajectory_id,t,score,flagged\nx,1,0,0\nx,2,1,1\nx,1,0,0\n",
         ":4: repeated step ('x', 1)"),
        ("trajectory_id,t,score,flagged\nx,1,0,0\nx,2,1,7\n", ":3: flagged 7 is not 0 or 1"),
    ], ids=["missing column", "non-numeric t", "non-numeric score", "short row",
            "NaN score", "infinite score", "repeated step", "flagged 7"])
    def test_malformed_scores_csv_exits_three(self, labeled_file, tmp_path, capsys,
                                              text, message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        assert main(["eval", "--scores", str(csv_path), "--traces", labeled_file]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_scores_csv_missing_a_step_exits_three(self, trained_checkpoint, labeled_file,
                                                   tmp_path, capsys):
        ckpt, _ = trained_checkpoint
        scores = tmp_path / "scores.csv"
        assert main(["score", "--checkpoint", ckpt, "--traces", labeled_file,
                     "--out", str(scores)]) == 0
        lines = scores.read_text().splitlines(keepends=True)
        trajectory_id, t = lines[-1].split(",")[:2]
        scores.write_text("".join(lines[:-1]))
        capsys.readouterr()
        assert main(["eval", "--scores", str(scores), "--traces", labeled_file]) == 3
        err = capsys.readouterr().err
        assert f"{scores}: no score for step {(trajectory_id, int(t))}" in err
        assert "Traceback" not in err

    def test_repeated_trajectory_id_exits_three(self, trained_checkpoint, tmp_path,
                                                capsys):
        """Steps are matched and grouped by (trajectory id, t), so a repeated
        id would pool two trajectories into one."""
        ckpt, _ = trained_checkpoint
        corpus = make_anomaly_corpus(4, seed=23, T=4)
        traces = tmp_path / "repeated.jsonl"
        save_trajectories(str(traces), corpus + [corpus[0]])
        assert main(["eval", "--checkpoint", ckpt, "--traces", str(traces)]) == 3
        assert "trajectory id repeats" in capsys.readouterr().err

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

    def test_golden_digest(self, trained_checkpoint, labeled_file, tmp_path):
        """SHA-256 of the metrics JSON and the ``--hist --bins 6`` CSV, in
        that order, of ``--scores`` mode and then ``--checkpoint`` mode; the
        digest is committed, so a missing file fails."""
        golden = GOLDEN_DIR / "eval_digest.txt"
        assert golden.exists(), f"missing {golden}"
        ckpt, _ = trained_checkpoint
        scores = str(tmp_path / "scores.csv")
        assert main(["score", "--checkpoint", ckpt, "--traces", labeled_file,
                     "--out", scores]) == 0
        written = b""
        for source in (["--scores", scores], ["--checkpoint", ckpt]):
            out, hist = tmp_path / "metrics.json", tmp_path / "hist.csv"
            assert main(["eval", "--traces", labeled_file, "--out", str(out),
                         "--hist", str(hist), "--bins", "6"] + source) == 0
            written += out.read_bytes() + hist.read_bytes()
        assert hashlib.sha256(written).hexdigest() == golden.read_text().strip()


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

    def test_embeds_each_trajectory_once(self, labeled_file, monkeypatch, capsys):
        calls = []

        def counting(spec, trajectory, with_gt=False):
            calls.append(trajectory.id)
            return embed_trajectory(spec, trajectory, with_gt=with_gt)

        def refuse(*args):
            raise AssertionError("embed_step called")

        monkeypatch.setattr(cli, "embed_trajectory", counting)
        for module in ("masc.embedding", "masc.evaluation"):
            monkeypatch.setattr(f"{module}.embed_step", refuse, raising=False)
        assert main(["diag", "--traces", labeled_file]) == 0
        assert sorted(calls) == sorted(t.id for t in load_trajectories(labeled_file))

    def test_golden_digest(self, labeled_file, capsys):
        """SHA-256 of the ``masc diag --bins 4`` JSON; the digest is
        committed, so a missing file fails."""
        golden = GOLDEN_DIR / "diag_digest.txt"
        assert golden.exists(), f"missing {golden}"
        assert main(["diag", "--traces", labeled_file, "--bins", "4"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == golden.read_text().strip()


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

    @pytest.mark.parametrize("flags", [
        ["--epochs", "0"], ["--lr", "0"], ["--dim", "0"], ["--hidden", "0"],
        ["--lambda", "-1"], ["--seed", "-1"], ["--seed", str(2**32)],
    ], ids=["epochs", "lr", "dim", "hidden", "lambda", "seed -1", "seed 2**32"])
    def test_bad_training_setting_exits_two_before_any_fixture_run(
        self, monkeypatch, capsys, flags
    ):
        runs = []

        def counting(*args, **kwargs):
            runs.append(args)
            return run_fixture(*args, **kwargs)

        monkeypatch.setattr("masc.experiment.run_fixture", counting)
        assert main(["simulate", "--fixtures", "4", *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert len(runs) == 0

    def test_clean_chain_accuracy_one(self, tmp_path, capsys):
        out = str(tmp_path / "sim.json")
        assert main(["simulate", "--topology", "chain", "--fault", "off",
                     "--masc", "off", "--fixtures", "5", "--out", out]) == 0
        payload = json.loads(Path(out).read_text())
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
        off = json.loads(Path(out_off).read_text())["cells"]["chain/faulted/off"]
        inf = json.loads(Path(out_inf).read_text())["cells"]["chain/faulted/masc"]
        assert inf["accuracy"] == off["accuracy"]
        assert inf["interventions"] == 0
        # identical trajectories modulo the cell prefix in ids
        def strip(path, cell):
            return [
                line.replace(cell, "CELL", 1)
                for line in Path(path).read_text().splitlines()
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
        lines = Path(csv_path).read_text().strip().split("\n")
        assert lines[0].startswith("topology,condition")
        assert len(lines) == 2


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """``valid`` with one to four bytes replaced, inserted or deleted."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.integers(0, 255))
        if edit == "replace":
            data[i] = byte
        elif edit == "insert":
            data.insert(i, byte)
        else:
            del data[i]
    return bytes(data)


SMALL_TRAIN = ["--epochs", "1", "--hidden", "8", "--dim", "4", "--layers", "1"]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory holding one small valid file of each kind a command reads,
    and those files' bytes by suffix."""
    directory = tmp_path_factory.mktemp("fuzz")
    traces, labeled = str(directory / "valid.jsonl"), str(directory / "labeled.jsonl")
    ckpt, scores = str(directory / "valid.ckpt"), str(directory / "valid.csv")
    save_trajectories(traces, make_normal_corpus(2, seed=3, T=3))
    save_trajectories(labeled, make_anomaly_corpus(2, seed=4, T=3))
    assert main(["train", "--traces", traces, "--checkpoint", ckpt] + SMALL_TRAIN) == 0
    assert main(["calibrate", "--checkpoint", ckpt, "--traces", traces]) == 0
    assert main(["score", "--checkpoint", ckpt, "--traces", labeled, "--out", scores]) == 0
    valid = {
        suffix: Path(path).read_bytes()
        for suffix, path in ((".jsonl", traces), (".ckpt", ckpt), (".csv", scores))
    }
    valid[".json"] = b'{"lr": 0.001, "lambda": 0.2, "with_gt": false}\n'
    valid[".toml"] = b"lr = 0.001\nlambda = 0.2\nwith_gt = false\n"
    return directory, valid


class TestByteFuzz:
    """Arbitrary bytes, and small mutations of a valid file, end in a value
    or a MascError in every reader, and in a documented exit code in main."""

    READERS = {
        ".jsonl": load_trajectories,
        ".ckpt": load_checkpoint,
        ".json": cli._load_config_file,
        ".toml": cli._load_config_file,
        ".csv": cli._scores_from_csv,
    }

    @pytest.mark.parametrize("suffix", sorted(READERS))
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_a_reader_returns_or_raises_a_masc_error(self, fuzz_inputs, suffix, data):
        directory, valid = fuzz_inputs
        path = directory / f"fuzz{suffix}"
        path.write_bytes(data.draw(st.binary(max_size=200) | mutated(valid[suffix])))
        try:
            self.READERS[suffix](str(path))
        except MascError:
            pass

    @pytest.mark.parametrize("command", ["ingest", "train", "score", "eval"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_main_on_a_mutated_input_exits_with_a_documented_code(
        self, fuzz_inputs, command, data
    ):
        directory, valid = fuzz_inputs
        suffix = {"ingest": ".jsonl", "train": ".json", "score": ".ckpt", "eval": ".csv"}[command]
        path, out = str(directory / f"mutated{suffix}"), str(directory / "out")
        Path(path).write_bytes(data.draw(mutated(valid[suffix])))
        traces, labeled = str(directory / "valid.jsonl"), str(directory / "labeled.jsonl")
        argv = {
            "ingest": ["ingest", "--traces", path, "--out", out],
            "train": ["train", "--traces", traces, "--checkpoint", out, "--config", path]
            + SMALL_TRAIN,
            "score": ["score", "--checkpoint", path, "--traces", traces, "--out", out],
            "eval": ["eval", "--traces", labeled, "--scores", path],
        }[command]
        assert main(argv) in (0, 2, 3, 4)
