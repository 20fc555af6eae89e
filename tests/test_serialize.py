"""Pickle-free model persistence: round trips and format refusal."""

import json
import re
import struct
import zipfile
import zlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from polyemo.serialize import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MAX_DECIMALS,
    Deflated,
    load_model,
    save_model,
)
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
            matrix = np.round(rng.normal(size=(len(words), 4)), 5)  # as a text vector file holds
            pipe.embeddings = EmbeddingTable(tuple(words), matrix, "xx", "mem")
        x = pipe.represent(seqs)
    pipe.pca = fit_pca(pipe.reduce(x))
    pipe.classifier = fit(spec, pipe.reduce(x), rng.integers(0, 2, size=(len(TEXTS), 6)))
    return pipe


REPRESENTATION_KINDS = ("bow", "tfidf", "word-vectors", "precomputed")


class TestZipWriter:
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
        planes = serialize._decimal_form(embeddings.matrix).planes
        deflated, searched = [], []
        compress, search = serialize._deflate, serialize._decimal_form

        def counting_compress(array):
            if array.shape == planes.shape and np.array_equal(array, planes):
                deflated.append(array)
            return compress(array)

        def counting_search(matrix):
            searched.append(matrix)
            return search(matrix)

        monkeypatch.setattr(serialize, "_deflate", counting_compress)
        monkeypatch.setattr(serialize, "_decimal_form", counting_search)
        memo = {}
        save_model(dt_pipe, tmp_path / "dt.npz", memo=memo)
        save_model(knn_pipe, tmp_path / "knn.npz", memo=memo)
        assert len(deflated) == 1
        save_model(knn_pipe, tmp_path / "alone.npz")  # no memo: deflated again
        assert len(deflated) == 2
        assert len(searched) == 1  # one table object: its decimal form is found once
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


class TestDeflateStrategy:
    """Huffman-only deflate for float64 members that LZ77 cannot shrink, the default elsewhere."""

    @staticmethod
    def noise(rng, rows=300, columns=100):
        return rng.normal(size=(rows, columns))  # 240 KB

    @staticmethod
    def zero_heavy(rng, rows=300, columns=100):
        return np.where(rng.random((rows, columns)) < 0.9, 0.0, rng.normal(size=(rows, columns)))

    def test_strategy_rule(self, rng):
        strategy = serialize._strategy
        assert strategy(self.noise(rng)) == zlib.Z_HUFFMAN_ONLY
        assert strategy(self.zero_heavy(rng)) == zlib.Z_DEFAULT_STRATEGY
        assert strategy(self.noise(rng, rows=80)) == zlib.Z_DEFAULT_STRATEGY  # 64 KB: not probed
        assert strategy(self.noise(rng).astype(np.float32)) == zlib.Z_DEFAULT_STRATEGY
        planes = serialize._decimal_form(np.round(self.noise(rng, rows=3000), 5)).planes
        assert planes.dtype == np.uint8 and planes.nbytes > 1 << 20
        assert strategy(planes) == zlib.Z_DEFAULT_STRATEGY

    def test_probe_reads_slices_across_the_member(self, rng):
        # 64 KiB of noise up front, which a probe of the first 64 KiB alone would
        # Huffman-code, and zero-heavy values behind it, which LZ77 shrinks
        array = np.concatenate([rng.normal(size=8192), self.zero_heavy(rng, rows=2000).ravel()])
        assert serialize._strategy(array[:8192]) == zlib.Z_DEFAULT_STRATEGY  # too small to probe
        sizes = []
        for strategy in (zlib.Z_HUFFMAN_ONLY, zlib.Z_DEFAULT_STRATEGY):
            compressor = zlib.compressobj(1, zlib.DEFLATED, -15, 8, strategy)
            sizes.append(len(compressor.compress(array[:8192].tobytes()) + compressor.flush()))
        assert sizes[0] <= sizes[1]
        assert serialize._strategy(array) == zlib.Z_DEFAULT_STRATEGY

    def test_mixed_strategies_read_back(self, rng, tmp_path):
        arrays = {"noise": self.noise(rng), "zeros": self.zero_heavy(rng), "small": rng.normal(size=8)}
        ours, ref = tmp_path / "mixed.npz", tmp_path / "ref.npz"
        save_model(arrays, ours)
        np.savez_compressed(ref, **serialize._encode_model(arrays))

        def default_deflate_size(data):
            compressor = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -15)
            return len(compressor.compress(data) + compressor.flush())

        with zipfile.ZipFile(ours) as a, zipfile.ZipFile(ref) as b:
            assert a.testzip() is None
            assert a.namelist() == b.namelist() == ["__meta__.npy", "a0.npy", "a1.npy", "a2.npy"]
            assert all(a.read(n) == b.read(n) for n in b.namelist())
            default = {n: a.getinfo(n).compress_size == default_deflate_size(a.read(n)) for n in a.namelist()}
        # the noise member (a0) is Huffman-coded; the rest are what np.savez_compressed deflates
        assert default == {"__meta__.npy": True, "a0.npy": False, "a1.npy": True, "a2.npy": True}
        with np.load(ours, allow_pickle=False) as z:
            for key, array in zip(("a0", "a1", "a2"), arrays.values()):
                np.testing.assert_array_equal(z[key], array)
        restored = load_model(ours)
        assert restored.keys() == arrays.keys()
        for name, array in arrays.items():
            np.testing.assert_array_equal(restored[name], array)


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

    def test_version_three_model_refused(self, tmp_path):
        # a v3 word-vector table is its float64 matrix, without decimals or negative zeros
        path = tmp_path / "emb.npz"
        save_model(EmbeddingTable(("a", "b"), np.array([[0.5, -1.25], [2.0, -0.0]])), path)

        def mutate(meta):
            meta["version"] = 3
            fields = meta["root"]["fields"]
            del fields["decimals"], fields["negative_zeros"]

        self.tamper_meta(path, mutate)
        with pytest.raises(FormatError, match="version 3 is not supported"):
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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bits: ``-0.0`` differs from ``0.0``."""
    return a.dtype == b.dtype and a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()


def narrowest_width(values: np.ndarray) -> int:
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    return next(w for w in (1, 2, 4, 8) if -(1 << (8 * w - 1)) <= lo and hi < 1 << (8 * w - 1))


@st.composite
def decimal_tables(draw):
    """``(matrix, decimals, mantissas)``: each value the float nearest ``mantissa / 10**decimals``.

    Some rows use fewer decimals than others, mantissa magnitudes range
    from int8 to int64, and some values are ``-0.0``.
    """
    decimals = draw(st.integers(0, MAX_DECIMALS))
    rows, columns = draw(st.integers(0, 30)), draw(st.integers(1, 9))
    bound = draw(st.sampled_from([100, 30_000, 2_000_000_000, 1 << 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mantissas = rng.integers(-bound, bound + 1, size=(rows, columns))
    for row in np.flatnonzero(rng.random(rows) < draw(st.floats(0, 1))):
        step = 10 ** int(rng.integers(0, decimals + 1))  # fewer decimals in this row
        mantissas[row] = mantissas[row] // step * step
    matrix = mantissas / 10.0**decimals
    signed = rng.random(matrix.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    matrix[signed] = -0.0
    mantissas[signed] = 0
    return matrix, decimals, mantissas


class TestDecimalTables:
    @given(table=decimal_tables(), block_values=st.sampled_from([1, 7, 1 << 16]))
    def test_decimal_tables_round_trip_bit_for_bit(self, table, block_values, tmp_path_factory):
        matrix, decimals, mantissas = table
        # the fewest decimals the values need, and their mantissas at it
        while decimals and not (mantissas % 10).any():
            decimals, mantissas = decimals - 1, mantissas // 10
        with mock.patch.object(serialize, "_BLOCK_VALUES", block_values):
            form = serialize._decimal_form(matrix)
        assert form.decimals == decimals
        assert form.planes.shape == (narrowest_width(mantissas),) + matrix.shape
        signed = np.flatnonzero((matrix == 0) & np.signbit(matrix))
        np.testing.assert_array_equal(form.negative_zeros, signed)
        path = tmp_path_factory.mktemp("decimal") / "emb.npz"
        tokens = tuple(f"w{i}" for i in range(len(matrix)))
        save_model(EmbeddingTable(tokens, matrix, "xx", "xx.vec"), path)
        with np.load(path, allow_pickle=False) as z:
            assert [z[k].dtype for k in z.files] == [np.uint8, np.uint8, np.uint8, np.int64]
        restored = load_model(path)
        assert restored.tokens == tokens
        assert same_bits(restored.matrix, matrix)

    def test_a_block_needing_more_decimals_restarts_the_search(self):
        # row 0 alone is exact at 0 decimals; row 1 needs 3, which turns 100 into 100000
        matrix = np.array([[100.0], [0.001]])
        with mock.patch.object(serialize, "_BLOCK_VALUES", 1):
            form = serialize._decimal_form(matrix)
        assert (form.decimals, form.planes.shape) == (3, (4, 2, 1))
        restored = serialize._restore_decimals(3, form.planes, form.negative_zeros, 2)
        assert same_bits(restored, matrix)

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30), columns=st.integers(1, 9))
    def test_plain_floats_keep_the_float64_member(self, seed, rows, columns, tmp_path_factory):
        matrix = np.random.default_rng(seed).normal(size=(rows, columns))
        assert serialize._decimal_form(matrix) is None
        self.assert_float_member_round_trip(matrix, tmp_path_factory.mktemp("float") / "emb.npz")

    @pytest.mark.parametrize(
        "values", [[1.5, np.inf], [np.nan, 0.0], [1e300, 2.0], [0.1 + 0.2, 1.0], [1e-10, 0.0]]
    )
    def test_values_without_a_decimal_form_keep_the_float64_member(self, values, tmp_path):
        matrix = np.array([values])
        assert serialize._decimal_form(matrix) is None
        self.assert_float_member_round_trip(matrix, tmp_path / "emb.npz")

    def assert_float_member_round_trip(self, matrix, path):
        save_model(EmbeddingTable(tuple(f"w{i}" for i in range(len(matrix))), matrix), path)
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(z["__meta__"].tobytes())["root"]["fields"]
            assert (meta["decimals"], meta["negative_zeros"]) == (None, None)
            assert same_bits(z[meta["matrix"]["key"]], matrix)
        assert same_bits(load_model(path).matrix, matrix)


def saved_word_vector_model(rng, path):
    """A word-vector pipeline whose five-decimal table holds a ``-0.0``, saved at ``path``."""
    pipe = fitted_pipeline("word-vectors", ClassifierSpec(kind="dt"), rng)
    matrix = pipe.embeddings.matrix.copy()
    matrix[0, 0] = -0.0
    pipe = replace(pipe, embeddings=replace(pipe.embeddings, matrix=matrix))
    save_model(pipe, path)
    return pipe


def flip_payload_byte(data: bytes, info: zipfile.ZipInfo) -> bytes:
    """``data`` with the middle byte of member ``info``'s deflated payload inverted."""
    name_size, extra_size = struct.unpack_from("<2H", data, info.header_offset + 26)
    payload = info.header_offset + 30 + name_size + extra_size
    damaged = bytearray(data)
    damaged[payload + info.compress_size // 2] ^= 0xFF
    return bytes(damaged)


def rewrite(path, mutate):
    """Rewrite the model at ``path`` after ``mutate(table fields, arrays)``; the root is a pipeline."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(z["__meta__"].tobytes().decode("utf-8"))
        arrays = {k: z[k] for k in z.files if k != "__meta__"}
    mutate(meta["root"]["fields"]["embeddings"]["fields"], arrays)
    raw = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, __meta__=raw, **arrays)


def set_member(field, change):
    """A mutation replacing the member of table field ``field`` by ``change(member)``."""

    def mutate(fields, arrays):
        key = fields[field]["key"]
        arrays[key] = change(arrays[key])

    return mutate


def rename_member(fields, arrays):
    fields["negative_zeros"]["key"] = "a999"


class TestDamagedFiles:
    def test_word_vector_model_round_trips_its_negative_zero(self, rng, tmp_path):
        pipe = saved_word_vector_model(rng, tmp_path / "wv.npz")
        restored = load_model(tmp_path / "wv.npz")
        assert same_bits(restored.embeddings.matrix, pipe.embeddings.matrix)
        assert np.signbit(restored.embeddings.matrix[0, 0])
        np.testing.assert_array_equal(restored.predict_texts(TEXTS), pipe.predict_texts(TEXTS))

    def test_every_damaged_member_is_a_format_error(self, rng, tmp_path):
        path = tmp_path / "wv.npz"
        saved_word_vector_model(rng, path)
        data = path.read_bytes()
        with zipfile.ZipFile(path) as z:
            members = z.infolist()
        assert len(members) > 10  # the table's tokens, planes and negative zeros among them
        for info in members:
            path.write_bytes(flip_payload_byte(data, info))
            with pytest.raises(FormatError, match=re.escape(str(path))):
                load_model(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (set_member("matrix", lambda planes: planes[:3]), "byte planes"),
            (set_member("matrix", lambda planes: planes[:, 1:]), "byte planes"),
            (set_member("matrix", lambda planes: planes.astype(np.int16)), "byte planes"),
            (set_member("negative_zeros", lambda nz: np.array([1 << 40])), "negative-zero"),
            (set_member("negative_zeros", lambda nz: np.array([-1])), "negative-zero"),
            (set_member("negative_zeros", lambda nz: nz.astype(np.int32)), "negative-zero"),
            # index 1 names a value of the table that is not zero
            (set_member("negative_zeros", lambda nz: nz + 1), "negative-zero"),
            (lambda fields, arrays: fields.update(decimals=MAX_DECIMALS + 1), "decimals"),
            (lambda fields, arrays: fields.update(decimals=True), "decimals"),
            (rename_member, "missing member 'a999'"),
        ],
        ids=[
            "three-planes", "planes-rows", "planes-dtype", "index-past-end", "index-negative",
            "index-dtype", "index-of-nonzero", "decimals-range", "decimals-bool", "missing-member",
        ],
    )
    def test_table_that_does_not_fit_its_planes_refused(self, mutate, message, rng, tmp_path):
        path = tmp_path / "wv.npz"
        saved_word_vector_model(rng, path)
        rewrite(path, mutate)
        with pytest.raises(FormatError, match=re.escape(str(path)) + ".*" + re.escape(message)):
            load_model(path)

    def test_damaged_model_is_a_cli_error_not_a_traceback(self, rng, tmp_path, capsys):
        from polyemo.cli import main

        path = tmp_path / "wv.npz"
        saved_word_vector_model(rng, path)
        with zipfile.ZipFile(path) as z:
            planes = max(z.infolist(), key=lambda info: info.file_size)
        path.write_bytes(flip_payload_byte(path.read_bytes(), planes))
        texts = tmp_path / "texts.csv"
        texts.write_text("id,text\nd0,joy smile\n")
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(path), "--input", str(texts), "--out", str(out)]) == 2
        assert f"error: {path}: damaged model member" in capsys.readouterr().err
        assert not out.exists()


# the JSON field names of every registered type, in file order
EXPECTED_LAYOUT = {
    "ClassifierSpec": ["kind", "hyperparameters", "seed", "members"],
    "DecisionTree": ["spec", "input_dim", "n_labels", "feature", "threshold", "left", "right", "value"],
    "EmbeddingTable": ["language", "source", "tokens", "decimals", "matrix", "negative_zeros"],
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
