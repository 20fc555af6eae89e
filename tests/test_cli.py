"""The polyemo command-line interface."""

import json

import pytest

from polyemo.cli import main
from polyemo.corpus import load_split
from polyemo.pipeline import read_predictions


@pytest.fixture()
def config_path(synthetic_dir, tmp_path):
    raw = {
        "data_dir": str(synthetic_dir / "data"),
        "languages": ["syn"],
        "representations": [{"name": "tfidf", "kind": "tfidf"}],
        "classifiers": [{"name": "dt", "kind": "dt"}],
        "reduction": {"pca": [False]},
        "seed": 7,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_run_exits_zero_and_summarizes(config_path, tmp_path, capsys):
    code = main(["run", "--config", str(config_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1 cells ok" in out
    assert (tmp_path / "out" / "report.csv").is_file()


def test_run_honors_out_override(config_path, tmp_path, capsys):
    other = tmp_path / "elsewhere"
    code = main(["run", "--config", str(config_path), "--out", str(other)])
    assert code == 0
    assert (other / "report.csv").is_file()
    assert str(other) in capsys.readouterr().out


def test_run_with_failing_cell_exits_one(synthetic_dir, tmp_path, capsys):
    raw = {
        "data_dir": str(synthetic_dir / "data"),
        "languages": ["syn"],
        "representations": [
            {"name": "wv", "kind": "word-vectors", "vectors": {"other": str(synthetic_dir / "syn.vec")}}
        ],
        "classifiers": [{"name": "dt", "kind": "dt"}],
        "reduction": {"pca": [False]},
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = main(["run", "--config", str(path)])
    assert code == 1
    assert "0/1 cells ok" in capsys.readouterr().out


def test_config_errors_exit_two_on_stderr(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{\"languages\": []}", encoding="utf-8")
    code = main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")


def test_missing_config_file_is_reported(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_ablate_reports_paired_tables(config_path, tmp_path, capsys):
    code = main(["ablate", "--config", str(config_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 cells ok" in out
    assert (tmp_path / "out" / "views" / "ablation_f1.syn.csv").is_file()


def test_predict_round_trip(config_path, synthetic_dir, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    model = tmp_path / "out" / "models" / "syn__tfidf__pca-off__dt.npz"
    target = tmp_path / "fresh.csv"
    code = main(
        [
            "predict",
            "--model",
            str(model),
            "--input",
            str(synthetic_dir / "data" / "syn" / "dev.csv"),
            "--out",
            str(target),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 12 predictions" in out
    ids, matrix = read_predictions(target)
    assert matrix.shape == (12, 6)
    assert ids == load_split(synthetic_dir / "data" / "syn" / "dev.csv", "dev").ids()


def test_predict_rejects_garbage_model(tmp_path, capsys):
    bad = tmp_path / "model.npz"
    bad.write_bytes(b"not an archive")
    src = tmp_path / "in.csv"
    src.write_text("id,text\na,hi\n", encoding="utf-8")
    code = main(["predict", "--model", str(bad), "--input", str(src), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_inspect_dataset_infers_role_from_name(synthetic_dir, capsys):
    code = main(["inspect", "--dataset", str(synthetic_dir / "data" / "syn" / "train.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "language: syn" in out and "role: train" in out
    assert "documents: 84" in out
    for label in ("anger", "disgust", "fear", "joy", "sadness", "surprise"):
        assert label in out


def test_inspect_vectors(synthetic_dir, capsys):
    code = main(["inspect", "--vectors", str(synthetic_dir / "syn.vec")])
    out = capsys.readouterr().out
    assert code == 0
    assert "vectors: 120" in out and "dimension: 12" in out


def test_inspect_vocab(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    code = main(["inspect", "--vocab", str(tmp_path / "out" / "vocab" / "syn__tfidf.tsv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "vocabulary size:" in out


def test_inspect_vectors_with_bad_header_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.vec"
    path.write_text("3 \u00b2\na 1\n", encoding="utf-8")
    code = main(["inspect", "--vectors", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and f"{path}: line 1: " in err


def test_inspect_malformed_vocab_exits_two(tmp_path, capsys):
    path = tmp_path / "vocab.tsv"
    path.write_text("a\t1\nb 2\n", encoding="utf-8")
    code = main(["inspect", "--vocab", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and f"{path}: line 2: " in err


@pytest.mark.parametrize("flag", ["--vocab", "--vectors", "--dataset"])
def test_inspect_missing_file_exits_two(flag, tmp_path, capsys):
    path = tmp_path / "nope.tsv"
    code = main(["inspect", flag, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: cannot read {path}: No such file or directory\n"


@pytest.mark.parametrize("flag", ["--vocab", "--vectors", "--dataset"])
def test_inspect_file_that_is_not_utf8_exits_two(flag, tmp_path, capsys):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\n")
    code = main(["inspect", flag, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {path}: line 1: not UTF-8 text")


def test_workers_flag_is_gone(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_subcommand_is_required(capsys):
    with pytest.raises(SystemExit):
        main([])
