"""Pickle-free model persistence: round trips and format refusal."""

import json

import numpy as np
import pytest

from polyemo.dense_features import EmbeddingTable
from polyemo.errors import ConfigError, FormatError
from polyemo.learn import (
    ClassifierSpec,
    DecisionTree,
    KNearestNeighbors,
    LinearSvm,
    Mlp,
    RandomForest,
    VotingEnsemble,
    default_voting_spec,
    fit,
)
from polyemo.pipeline import PipelineModel
from polyemo.reduce import fit_pca
from polyemo.serialize import FORMAT_NAME, FORMAT_VERSION, load_model, save_model
from polyemo.sparse_features import fit_tfidf, transform_tfidf
from polyemo.tokenize import TokenizerSpec


def small_problem(rng, n=20, d=4, labels=6):
    x = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=(n, labels)).astype(np.int64)
    return x, y


CLASSIFIER_SPECS = [
    ClassifierSpec(kind="dt"),
    ClassifierSpec(kind="knn", hyperparameters={"k": 3}),
    ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 5}),
    ClassifierSpec(kind="svm", hyperparameters={"epochs": 20}),
    ClassifierSpec(kind="mlp", hyperparameters={"hidden_sizes": (6,), "epochs": 5}),
    default_voting_spec(),
]


class TestClassifierRoundTrips:
    @pytest.mark.parametrize("spec", CLASSIFIER_SPECS, ids=lambda s: s.kind)
    def test_predictions_survive_round_trip(self, spec, rng, tmp_path):
        x, y = small_problem(rng)
        model = fit(spec, x, y)
        q = rng.normal(size=(10, x.shape[1]))
        before = model.predict(q)
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        assert type(restored) is type(model)
        np.testing.assert_array_equal(restored.predict(q), before)

    def test_tree_structure_identical(self, rng, tmp_path):
        x, y = small_problem(rng, n=40)
        model = DecisionTree().fit(x, y)
        save_model(model, tmp_path / "dt.npz")
        restored = load_model(tmp_path / "dt.npz")
        assert restored.depth() == model.depth()
        for name in ("feature", "threshold", "left", "right", "value"):
            a, b = getattr(model, name), getattr(restored, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_mlp_weights_bit_exact(self, rng, tmp_path):
        x, y = small_problem(rng)
        spec = ClassifierSpec(kind="mlp", hyperparameters={"hidden_sizes": (5,), "epochs": 3})
        model = fit(spec, x, y)
        save_model(model, tmp_path / "mlp.npz")
        restored = load_model(tmp_path / "mlp.npz")
        for a, b in zip(model.weights, restored.weights):
            np.testing.assert_array_equal(a, b)
        scores_a = model.predict_scores(x)
        scores_b = restored.predict_scores(x)
        np.testing.assert_array_equal(scores_a, scores_b)

    def test_voting_members_restored_in_order(self, rng, tmp_path):
        x, y = small_problem(rng)
        model = fit(default_voting_spec(), x, y)
        save_model(model, tmp_path / "v.npz")
        restored = load_model(tmp_path / "v.npz")
        assert isinstance(restored, VotingEnsemble)
        assert [type(m).__name__ for m in restored.members] == [
            "KNearestNeighbors",
            "DecisionTree",
            "RandomForest",
        ]


class TestAtomicSave:
    def test_failed_save_keeps_previous_model(self, rng, tmp_path, monkeypatch):
        x, y = small_problem(rng)
        path = tmp_path / "model.npz"
        save_model(fit(ClassifierSpec(kind="dt"), x, y), path)
        before = path.read_bytes()

        def disk_full(fh, **arrays):
            fh.write(b"PK partial archive")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez_compressed", disk_full)
        with pytest.raises(OSError, match="no space"):
            save_model(fit(ClassifierSpec(kind="knn"), x, y), path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))
        monkeypatch.undo()
        assert isinstance(load_model(path), DecisionTree)


class TestFeatureModelRoundTrips:
    def test_tfidf(self, rng, tmp_path):
        docs = [["a", "b"], ["b", "c"], ["c"]]
        model = fit_tfidf(docs)
        save_model(model, tmp_path / "tfidf.npz")
        restored = load_model(tmp_path / "tfidf.npz")
        assert restored.vocabulary == model.vocabulary
        np.testing.assert_array_equal(restored.idf, model.idf)
        a = transform_tfidf([["a", "c", "c"]], model).toarray()
        b = transform_tfidf([["a", "c", "c"]], restored).toarray()
        np.testing.assert_array_equal(a, b)

    def test_pca(self, rng, tmp_path):
        model = fit_pca(rng.normal(size=(10, 4)))
        save_model(model, tmp_path / "pca.npz")
        restored = load_model(tmp_path / "pca.npz")
        np.testing.assert_array_equal(restored.components, model.components)
        np.testing.assert_array_equal(restored.mean, model.mean)
        np.testing.assert_array_equal(restored.explained_variance, model.explained_variance)
        assert restored.n_samples == model.n_samples

    def test_embedding_table(self, tmp_path):
        table = EmbeddingTable(
            dimension=2,
            vectors={"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])},
            language="syn",
            source="mem",
        )
        save_model(table, tmp_path / "emb.npz")
        restored = load_model(tmp_path / "emb.npz")
        assert restored.dimension == 2
        assert restored.language == "syn"
        assert set(restored.vectors) == {"a", "b"}
        np.testing.assert_array_equal(restored.vectors["a"], [1.0, 2.0])


class TestFormatGuards:
    def tamper_meta(self, path, mutate):
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(z["__meta__"].tobytes().decode("utf-8"))
            arrays = {k: z[k] for k in z.files if k != "__meta__"}
        mutate(meta)
        raw = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, __meta__=raw, **arrays)

    def saved_model(self, rng, tmp_path):
        x, y = small_problem(rng, n=6)
        path = tmp_path / "m.npz"
        save_model(fit(ClassifierSpec(kind="dt"), x, y), path)
        return path

    def test_wrong_version_refused(self, rng, tmp_path):
        path = self.saved_model(rng, tmp_path)
        self.tamper_meta(path, lambda meta: meta.update(version=FORMAT_VERSION + 1))
        with pytest.raises(FormatError, match="version"):
            load_model(path)

    def test_version_one_pipeline_refused(self, tmp_path):
        # a v1 pipeline still carries the bow_vocabulary field of that layout
        path = tmp_path / "pipe.npz"
        save_model(PipelineModel("xx", "ext", "precomputed", TokenizerSpec()), path)

        def mutate(meta):
            meta["version"] = 1
            meta["root"]["fields"]["bow_vocabulary"] = None

        self.tamper_meta(path, mutate)
        with pytest.raises(FormatError, match="version 1"):
            load_model(path)

    def test_wrong_format_name_refused(self, rng, tmp_path):
        path = self.saved_model(rng, tmp_path)
        self.tamper_meta(path, lambda meta: meta.update(format="other"))
        with pytest.raises(FormatError, match="format"):
            load_model(path)

    def test_unknown_type_refused(self, rng, tmp_path):
        path = self.saved_model(rng, tmp_path)

        def mutate(meta):
            meta["root"]["type"] = "EvilThing"

        self.tamper_meta(path, mutate)
        with pytest.raises(FormatError, match="EvilThing"):
            load_model(path)

    def test_missing_metadata_refused(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez_compressed(path, data=np.arange(3))
        with pytest.raises(FormatError, match="metadata"):
            load_model(path)

    def test_never_unpickles(self, tmp_path):
        # object arrays require pickling; loading a container holding one must
        # fail loudly rather than quietly unpickle
        path = tmp_path / "obj.npz"
        meta = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "root": {"__kind__": "array", "key": "a0"},
        }
        raw = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, __meta__=raw, a0=np.array([{"x": 1}], dtype=object))
        with pytest.raises(ValueError, match="pickle"):
            load_model(path)

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            save_model(DecisionTree(), tmp_path / "un.npz")

    def test_unregistered_object_rejected(self, tmp_path):
        class Mystery:
            pass

        with pytest.raises(ConfigError, match="Mystery"):
            save_model(Mystery(), tmp_path / "x.npz")
