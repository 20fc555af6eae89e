"""Fitted pipeline objects and the prediction CSV format."""

import numpy as np
import pytest

from polyemo.corpus import EMOTIONS
from polyemo.errors import ConfigError, DataError, SchemaError
from polyemo.learn import ClassifierSpec, fit
from polyemo.pipeline import PipelineModel, read_predictions, write_predictions
from polyemo.serialize import load_model, save_model
from polyemo.sparse_features import fit_tfidf, transform_tfidf
from polyemo.tokenize import Tokenizer, TokenizerSpec


def tfidf_pipeline(texts, labels, pca=None, normalize=False):
    tok = Tokenizer(TokenizerSpec())
    seqs = [tok(t) for t in texts]
    model = fit_tfidf(seqs)
    x = transform_tfidf(seqs, model)
    clf = fit(ClassifierSpec(kind="dt"), x, labels)
    return PipelineModel(
        language="xx",
        representation="tfidf",
        representation_kind="tfidf",
        tokenizer_spec=TokenizerSpec(),
        tokenizer_vocab=(),
        tfidf=model,
        embeddings=None,
        normalize=normalize,
        pca=pca,
        classifier=clf,
    )


class TestPipelineModel:
    def test_predict_texts_round_trips_training_data(self, rng):
        texts = ["joy joy smile", "anger rage fury", "joy smile", "rage fury anger"]
        labels = np.array(
            [[0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0]] * 2, dtype=np.int64
        )
        pipe = tfidf_pipeline(texts, labels)
        np.testing.assert_array_equal(pipe.predict_texts(texts), labels)

    def test_serialized_pipeline_predicts_identically(self, rng, tmp_path):
        texts = ["good day sun", "bad night rain", "sun and smiles", "rain and gloom"]
        labels = np.array(
            [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]] * 2, dtype=np.int64
        )
        pipe = tfidf_pipeline(texts, labels)
        save_model(pipe, tmp_path / "pipe.npz")
        restored = load_model(tmp_path / "pipe.npz")
        probe = ["sun smiles", "gloom rain night", "unseen words entirely"]
        np.testing.assert_array_equal(restored.predict_texts(probe), pipe.predict_texts(probe))

    def test_precomputed_pipeline_refuses_raw_text(self):
        pipe = PipelineModel(
            language="xx",
            representation="ext",
            representation_kind="precomputed",
            tokenizer_spec=TokenizerSpec(),
            tokenizer_vocab=(),
            tfidf=None,
            embeddings=None,
            normalize=False,
            pca=None,
            classifier=None,
        )
        with pytest.raises(ConfigError, match="cannot embed raw text"):
            pipe.predict_texts(["hello"])


class TestPredictionFiles:
    def test_header_layout(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions(path, ["a"], np.array([[0, 1, 0, 0, 0, 1]]))
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "id,anger,disgust,fear,joy,sadness,surprise"

    def test_round_trip(self, tmp_path, rng):
        ids = [f"doc{i}" for i in range(7)]
        pred = rng.integers(0, 2, size=(7, 6))
        path = tmp_path / "pred.csv"
        write_predictions(path, ids, pred)
        got_ids, got = read_predictions(path)
        assert got_ids == ids
        np.testing.assert_array_equal(got, pred)

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_predictions(tmp_path / "p.csv", ["a", "b"], np.zeros((1, 6)))

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "p.csv"
        write_predictions(path, ["a", "b"], np.zeros((2, 6), dtype=np.int64))
        before = path.read_bytes()
        bad = np.zeros((2, 6))
        bad[1, 0] = np.nan  # the first row is written before this one fails
        with pytest.raises(ValueError):
            write_predictions(path, ["a", "b"], bad)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,happy\nx,1\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_predictions(path)

    def test_read_rejects_non_binary(self, tmp_path):
        path = tmp_path / "p.csv"
        header = "id," + ",".join(EMOTIONS)
        path.write_text(f"{header}\nx,0,1,2,0,0,0\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-binary"):
            read_predictions(path)

    def test_read_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            read_predictions(path)

    def test_empty_prediction_set_round_trips(self, tmp_path):
        path = tmp_path / "p.csv"
        write_predictions(path, [], np.zeros((0, 6), dtype=np.int64))
        ids, pred = read_predictions(path)
        assert ids == []
        assert pred.shape == (0, 6)
