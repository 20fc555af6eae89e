"""Pickle-free model persistence: round trips and format refusal."""

import json
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from polyemo import serialize
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
from polyemo.serialize import FORMAT_NAME, FORMAT_VERSION, Deflated, load_model, save_model
from polyemo.sparse_features import TfidfModel, fit_bow, fit_tfidf, transform_tfidf
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


class TestFormatThreeLayout:
    def test_forest_member_count_does_not_grow_with_trees(self, rng, tmp_path):
        x, y = small_problem(rng)
        counts = []
        for n_trees in (3, 100):
            members = (
                ClassifierSpec(kind="knn"),
                ClassifierSpec(kind="dt"),
                ClassifierSpec(kind="rf", hyperparameters={"n_estimators": n_trees}),
            )
            path = tmp_path / f"voting{n_trees}.npz"
            save_model(fit(ClassifierSpec(kind="voting", members=members), x, y), path)
            with zipfile.ZipFile(path) as z:
                counts.append(len(z.namelist()))
            assert len(load_model(path).members[2].trees) == n_trees
        assert counts[0] == counts[1]

    def test_no_token_passes_through_the_metadata(self, rng, tmp_path):
        pipe = fitted_pipeline("word-vectors", ClassifierSpec(kind="dt"), rng)
        pipe.tokenizer_vocab = ("smile", "rage")
        vocab_pipe = fitted_pipeline("tfidf", ClassifierSpec(kind="dt"), rng)
        for name, model in (("wv", pipe), ("tfidf", vocab_pipe)):
            save_model(model, tmp_path / f"{name}.npz")
            with np.load(tmp_path / f"{name}.npz", allow_pickle=False) as z:
                meta = z["__meta__"].tobytes().decode("utf-8")
            for token in ("smile", "rage", "gloom"):  # words of TEXTS
                assert f'"{token}"' not in meta
            restored = load_model(tmp_path / f"{name}.npz")
            np.testing.assert_array_equal(restored.predict_texts(TEXTS), model.predict_texts(TEXTS))
        restored = load_model(tmp_path / "wv.npz")
        assert restored.tokenizer_vocab == ("smile", "rage")
        assert restored.embeddings.tokens == pipe.embeddings.tokens
        assert load_model(tmp_path / "tfidf.npz").tfidf.vocabulary == vocab_pipe.tfidf.vocabulary

    @pytest.mark.parametrize("tokens", [("a", "b\nc"), ("a", "")])
    def test_unjoinable_tokens_rejected(self, tokens, tmp_path):
        table = EmbeddingTable(tokens, np.zeros((2, 3)))
        with pytest.raises(ConfigError, match="newlines"):
            save_model(table, tmp_path / "t.npz")


class TestAtomicSave:
    def test_failed_save_keeps_previous_model(self, rng, tmp_path, monkeypatch):
        x, y = small_problem(rng)
        path = tmp_path / "model.npz"
        save_model(fit(ClassifierSpec(kind="dt"), x, y), path)
        before = path.read_bytes()

        def disk_full(array):
            raise OSError("no space left on device")

        monkeypatch.setattr(serialize, "_deflate", disk_full)
        with pytest.raises(OSError, match="no space"):
            save_model(fit(ClassifierSpec(kind="knn"), x, y), path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))
        monkeypatch.undo()
        assert isinstance(load_model(path), DecisionTree)


TEXTS = [
    "joy joy smile",
    "anger rage fury",
    "joy smile sun",
    "rage fury gloom",
    "sun and smiles",
    "rain and gloom",
]


def fitted_pipeline(kind, spec, rng):
    """A pipeline of representation ``kind`` with PCA and a ``spec`` classifier, fitted on TEXTS."""
    pipe = PipelineModel("xx", kind, kind, TokenizerSpec())
    if kind == "precomputed":
        x = rng.normal(size=(len(TEXTS), 5))
    else:
        tokenizer = pipe.make_tokenizer()
        seqs = [tokenizer(t) for t in TEXTS]
        if kind == "bow":
            vocab = fit_bow(seqs)
            pipe.tfidf = TfidfModel(vocabulary=vocab, idf=np.ones(len(vocab)), row_normalize=False)
        elif kind == "tfidf":
            pipe.tfidf = fit_tfidf(seqs)
        else:
            words = sorted({t for s in seqs for t in s.tokens})
            pipe.embeddings = EmbeddingTable(tuple(words), rng.normal(size=(len(words), 4)), "xx", "mem")
        x = pipe.represent(seqs)
    pipe.pca = fit_pca(pipe.reduce(x))
    pipe.classifier = fit(spec, pipe.reduce(x), rng.integers(0, 2, size=(len(TEXTS), 6)))
    return pipe


REPRESENTATION_KINDS = ("bow", "tfidf", "word-vectors", "precomputed")


class TestZipWriter:
    @pytest.mark.filterwarnings("ignore:densifying")
    @pytest.mark.parametrize("spec", CLASSIFIER_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("kind", REPRESENTATION_KINDS)
    def test_members_equal_numpy_writer(self, kind, spec, rng, tmp_path):
        pipe = fitted_pipeline(kind, spec, rng)
        ours, ref = tmp_path / "ours.npz", tmp_path / "ref.npz"
        save_model(pipe, ours)
        np.savez_compressed(ref, **serialize._encode_model(pipe))
        assert zipfile.ZipFile(ours).testzip() is None
        with np.load(ours, allow_pickle=False) as a, np.load(ref, allow_pickle=False) as b:
            assert a.files == b.files
            for name in b.files:
                assert a[name].dtype == b[name].dtype
                assert a[name].shape == b[name].shape
                np.testing.assert_array_equal(a[name], b[name])
        with zipfile.ZipFile(ours) as a, zipfile.ZipFile(ref) as b:
            assert all(a.read(n) == b.read(n) for n in b.namelist())  # .npy headers too
        if kind != "precomputed":  # a precomputed pipeline cannot read text
            restored = load_model(ours)
            np.testing.assert_array_equal(restored.predict_texts(TEXTS), pipe.predict_texts(TEXTS))

    def test_one_memo_deflates_a_shared_table_once(self, rng, tmp_path, monkeypatch):
        dt_pipe = fitted_pipeline("word-vectors", ClassifierSpec(kind="dt"), rng)
        knn = fit(ClassifierSpec(kind="knn", hyperparameters={"k": 3}), *small_problem(rng))
        knn_pipe = replace(dt_pipe, classifier=knn)
        embeddings = dt_pipe.embeddings
        table = embeddings.matrix
        deflated = []
        compress = serialize._deflate

        def counting_compress(array):
            if np.array_equal(array, table):
                deflated.append(array)
            return compress(array)

        monkeypatch.setattr(serialize, "_deflate", counting_compress)
        memo = {}
        save_model(dt_pipe, tmp_path / "dt.npz", memo=memo)
        save_model(knn_pipe, tmp_path / "knn.npz", memo=memo)
        assert len(deflated) == 1
        save_model(knn_pipe, tmp_path / "alone.npz")  # no memo: deflated again
        assert len(deflated) == 2
        for name, pipe in (("dt", dt_pipe), ("knn", knn_pipe)):
            restored = load_model(tmp_path / f"{name}.npz")
            assert type(restored.classifier) is type(pipe.classifier)
            assert set(restored.embeddings.tokens) == set(embeddings.tokens)
            for w, i in embeddings.index.items():
                row = restored.embeddings.matrix[restored.embeddings.index[w]]
                np.testing.assert_array_equal(row, embeddings.matrix[i])
        assert (tmp_path / "knn.npz").read_bytes() == (tmp_path / "alone.npz").read_bytes()

    def test_failed_write_keeps_previous_model(self, rng, tmp_path, fill_disk):
        x, y = small_problem(rng)
        path = tmp_path / "model.npz"
        save_model(fit(ClassifierSpec(kind="dt"), x, y), path)
        before = path.read_bytes()
        fill_disk()
        with pytest.raises(OSError, match="no space"):
            save_model(fit(ClassifierSpec(kind="knn"), x, y), path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_truncated_and_foreign_files_refused(self, rng, tmp_path):
        x, y = small_problem(rng)
        path = tmp_path / "model.npz"
        save_model(fit(ClassifierSpec(kind="dt"), x, y), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            load_model(path)
        path.write_bytes(b"not a zip archive")
        with pytest.raises(FormatError):
            load_model(path)

    def test_sizes_past_two_gib_move_to_zip64_fields(self, tmp_path):
        # only the headers are checked: the sizes are claimed, not written
        empty = memoryview(b"\x03\x00")  # raw deflate of no bytes
        path = tmp_path / "big.zip"
        with open(path, "wb") as fh:
            members = [
                ("big.npy", Deflated(empty, 0, 5 << 30)),
                ("small.npy", Deflated(empty, 0, 0)),
            ]
            serialize._write_zip(fh, members)
        with zipfile.ZipFile(path) as z:
            big, small = z.infolist()
        assert (big.file_size, big.compress_size, small.file_size) == (5 << 30, 2, 0)
        assert small.header_offset == 30 + len("big.npy") + 20 + 2


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
            tokens=("a", "b"),
            matrix=np.array([[1.0, 2.0], [3.0, 4.0]]),
            language="syn",
            source="mem",
        )
        save_model(table, tmp_path / "emb.npz")
        restored = load_model(tmp_path / "emb.npz")
        assert restored.dimension == 2
        assert restored.language == "syn"
        assert set(restored.tokens) == {"a", "b"}
        np.testing.assert_array_equal(restored.matrix[restored.index["a"]], [1.0, 2.0])


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

    def test_version_two_model_refused(self, rng, tmp_path):
        # a v2 forest is a list of tree objects, not packed node arrays
        path = tmp_path / "rf.npz"
        x, y = small_problem(rng, n=6)
        save_model(fit(ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 2}), x, y), path)

        def mutate(meta):
            meta["version"] = 2
            fields = meta["root"]["fields"]
            for name in ("sizes", "feature", "threshold", "left", "right", "value"):
                del fields[name]
            fields["trees"] = {"__kind__": "list", "items": []}

        self.tamper_meta(path, mutate)
        with pytest.raises(FormatError, match="version 2 is not supported"):
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

    @pytest.mark.parametrize(
        "learner",
        [DecisionTree, RandomForest, KNearestNeighbors, LinearSvm, Mlp, VotingEnsemble],
        ids=lambda cls: cls.__name__,
    )
    def test_unfitted_model_rejected(self, learner, tmp_path):
        # Mlp and VotingEnsemble start with empty lists, the others with None
        model = learner(default_voting_spec()) if learner is VotingEnsemble else learner()
        with pytest.raises(ConfigError, match=f"^cannot serialize an unfitted {learner.__name__}$"):
            save_model(model, tmp_path / "un.npz")
        assert not (tmp_path / "un.npz").exists()

    def test_unregistered_object_rejected(self, tmp_path):
        class Mystery:
            pass

        with pytest.raises(ConfigError, match="Mystery"):
            save_model(Mystery(), tmp_path / "x.npz")


# the JSON field names of every registered type, in file order
EXPECTED_LAYOUT = {
    "ClassifierSpec": ["kind", "hyperparameters", "seed", "members"],
    "DecisionTree": ["spec", "input_dim", "n_labels", "feature", "threshold", "left", "right", "value"],
    "EmbeddingTable": ["language", "source", "tokens", "matrix"],
    "KNearestNeighbors": ["spec", "x", "y", "input_dim", "n_labels"],
    "LinearSvm": ["spec", "w", "b", "input_dim", "n_labels"],
    "Mlp": ["spec", "weights", "biases", "input_dim", "n_labels"],
    "PcaModel": ["mean", "components", "explained_variance", "explained_variance_ratio", "n_samples"],
    "PipelineModel": [
        "language", "representation", "representation_kind", "tokenizer_spec", "tokenizer_vocab",
        "tfidf", "embeddings", "normalize", "pca", "classifier", "emotions",
    ],
    "RandomForest": [
        "spec", "input_dim", "n_labels", "sizes", "feature", "threshold", "left", "right", "value",
    ],
    "TfidfModel": ["vocabulary", "idf", "row_normalize"],
    "TokenizerSpec": ["kind", "lowercase", "vocab_path"],
    "Vocabulary": ["tokens", "document_frequency", "corpus_size"],
    "VotingEnsemble": ["spec", "members", "input_dim", "n_labels"],
}


def object_layouts(node, layouts):
    """Collect ``type -> field names`` for every object node under ``node``; one layout per type."""
    if not isinstance(node, dict):
        return
    kind = node["__kind__"]
    if kind == "object":
        names = list(node["fields"])
        assert layouts.setdefault(node["type"], names) == names, node["type"]
        children = node["fields"].values()
    elif kind == "dict":
        children = node["items"].values()
    else:
        children = node.get("items", ())
    for child in children:
        object_layouts(child, layouts)


class TestCodecLayout:
    @pytest.mark.filterwarnings("ignore:densifying")
    def test_field_names_of_every_registered_type(self, rng, tmp_path):
        mlp = ClassifierSpec(kind="mlp", hyperparameters={"hidden_sizes": (3,), "epochs": 2})
        layouts = {}
        for kind, spec in (
            ("tfidf", default_voting_spec()),  # knn, dt and rf members
            ("word-vectors", ClassifierSpec(kind="svm")),
            ("bow", mlp),
        ):
            path = tmp_path / f"{kind}.npz"
            save_model(fitted_pipeline(kind, spec, rng), path)
            with np.load(path, allow_pickle=False) as z:
                object_layouts(json.loads(z["__meta__"].tobytes())["root"], layouts)
        assert layouts == EXPECTED_LAYOUT
        assert set(layouts) == set(serialize._REGISTRY)
