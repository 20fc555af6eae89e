"""Pickle-free model persistence: round trips and format refusal."""

import json
import re
import weakref
import zlib
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyemo import serialize
from polyemo.dense_features import DecimalForm, EmbeddingTable, embed_documents
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
from polyemo.pipeline import PipelineModel, read_predictions
from polyemo.runner import predict_file
from polyemo.reduce import fit_pca
from polyemo.serialize import FORMAT_VERSION, MAX_DECIMALS, load_model, save_model
from polyemo.sparse_features import TfidfModel, fit_bow, fit_tfidf, transform_tfidf
from polyemo.tokenize import TokenizerSpec


MAGIC = b"\x93polyemo"


def deflate(data: bytes) -> bytes:
    return zlib.compress(data, wbits=-15)


def inflate(payload: bytes, size: int, crc: int) -> bytes:
    data = zlib.decompress(payload, -15)
    assert (len(data), zlib.crc32(data)) == (size, crc)
    return data


def read_model(path) -> tuple[dict, list]:
    """The JSON header and the arrays of the model file at ``path``, read with zlib and json alone.

    A reference reader: it asserts the layout, the magic and version, the
    deflated header, then each member's payload, the file ending at the last.
    """
    data = path.read_bytes()
    assert data[:8] == MAGIC and int.from_bytes(data[8:12], "little") == FORMAT_VERSION
    length, size, crc = (int.from_bytes(data[i:j], "little") for i, j in ((12, 20), (20, 28), (28, 32)))
    header = json.loads(inflate(data[32 : 32 + length], size, crc))
    offset, arrays = 32 + length, []
    for entry in header["members"]:
        raw = inflate(data[offset : offset + entry["length"]], entry["size"], entry["crc"])
        order = "F" if entry["fortran_order"] else "C"
        arrays.append(np.frombuffer(raw, entry["dtype"]).reshape(entry["shape"], order=order))
        offset += entry["length"]
    assert offset == len(data)
    return header, arrays


def pack(header, payloads, version=FORMAT_VERSION) -> bytes:
    """A model file of ``header`` (JSON, or the bytes it inflates to) and member ``payloads``."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    packed = deflate(text)
    numbers = ((version, 4), (len(packed), 8), (len(text), 8), (zlib.crc32(text), 4))
    return MAGIC + b"".join(n.to_bytes(size, "little") for n, size in numbers) + packed + b"".join(payloads)


def entry_and_payload(array) -> tuple[dict, bytes]:
    """The header entry and payload of ``array``, in C order."""
    raw = np.ascontiguousarray(array).tobytes()
    payload = deflate(raw)
    fields = {"dtype": array.dtype.str, "shape": list(array.shape), "fortran_order": False}
    return {**fields, "length": len(payload), "size": len(raw), "crc": zlib.crc32(raw)}, payload


def unpacked(path) -> tuple[dict, list[bytes]]:
    """The header of the model file at ``path`` and its arrays' payloads, as ``entry_and_payload`` writes them."""
    header, arrays = read_model(path)
    members = [entry_and_payload(array) for array in arrays]
    header["members"] = [entry for entry, _ in members]
    return header, [payload for _, payload in members]


def write_model(path, root, arrays, version=FORMAT_VERSION) -> None:
    """Write ``root`` and its members ``arrays`` as a model file, without ``save_model``."""
    members = [entry_and_payload(array) for array in arrays]
    header = {"root": root, "members": [entry for entry, _ in members]}
    path.write_bytes(pack(header, [payload for _, payload in members], version))


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
        for name in ("feature", "threshold", "right", "value"):
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
            counts.append(len(read_model(path)[0]["members"]))
            assert load_model(path).members[2].sizes.size == n_trees
        assert counts[0] == counts[1]

    def test_no_token_passes_through_the_metadata(self, rng, tmp_path):
        pipe = fitted_pipeline("word-vectors", ClassifierSpec(kind="dt"), rng)
        pipe.tokenizer_vocab = ("smile", "rage")
        vocab_pipe = fitted_pipeline("tfidf", ClassifierSpec(kind="dt"), rng)
        for name, model in (("wv", pipe), ("tfidf", vocab_pipe)):
            save_model(model, tmp_path / f"{name}.npz")
            meta = json.dumps(read_model(tmp_path / f"{name}.npz")[0])
            for token in ("smile", "rage", "gloom"):  # words of TEXTS
                assert f'"{token}"' not in meta
            restored = load_model(tmp_path / f"{name}.npz")
            np.testing.assert_array_equal(restored.predict_texts(TEXTS), model.predict_texts(TEXTS))
        restored = load_model(tmp_path / "wv.npz")
        assert restored.tokenizer_vocab == ("smile", "rage")
        assert restored.embeddings.tokens == pipe.embeddings.tokens
        assert load_model(tmp_path / "tfidf.npz").tfidf.vocabulary == vocab_pipe.tfidf.vocabulary

    @pytest.mark.parametrize("tokens", [("a", "b\nc"), ("a", "")])
    def test_unjoinable_tokens_rejected(self, tokens):
        # a table, whose tokens a save joins by newlines, holds no such token
        with pytest.raises(ConfigError, match="newlines"):
            EmbeddingTable(tokens, np.zeros((2, 3)))


class TestAtomicSave:
    def test_failed_save_keeps_previous_model(self, rng, tmp_path, monkeypatch):
        x, y = small_problem(rng)
        path = tmp_path / "model.npz"
        save_model(fit(ClassifierSpec(kind="dt"), x, y), path)
        before = path.read_bytes()

        def disk_full(array, setting):
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


def encodings(obj) -> tuple[dict, list]:
    """The JSON root of ``obj`` and, in member order, the ``(node, array, deflate setting)`` its encodings give."""
    found, member = [], serialize._member

    def recording(source, encoding, members, memo):
        found.append(encoding(source))
        return member(source, encoding, members, memo)

    with mock.patch.object(serialize, "_member", recording):
        root = serialize._encode_node(obj, [], {})
    return root, found


def encoded_arrays(obj) -> list:
    """The arrays ``save_model`` stores for ``obj``, in member order, without their deflate settings."""
    return [array for _, array, _ in encodings(obj)[1]]


def form_planes(form: DecimalForm) -> tuple:
    """The byte planes then the bit planes of ``form``, in file order."""
    return form.byte_planes + form.bit_planes


class TestModelWriter:
    @pytest.mark.parametrize("spec", CLASSIFIER_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("kind", REPRESENTATION_KINDS)
    def test_members_are_the_encoded_arrays(self, kind, spec, rng, tmp_path):
        pipe = fitted_pipeline(kind, spec, rng)
        ours = tmp_path / "ours.npz"
        save_model(pipe, ours)
        expected = encoded_arrays(pipe)
        _, members = read_model(ours)
        assert len(members) == len(expected)
        for member, array in zip(members, expected):
            assert member.dtype == array.dtype and member.shape == array.shape
            assert np.isfortran(member) == np.isfortran(array)
            assert member.tobytes() == array.tobytes()
        if kind != "precomputed":  # a precomputed pipeline cannot read text
            restored = load_model(ours)
            np.testing.assert_array_equal(restored.predict_texts(TEXTS), pipe.predict_texts(TEXTS))
        # saved under one memo after its siblings, which share its featurizer, it is the file saved alone
        x, y = small_problem(rng)
        memo = {}
        for i, other in enumerate(CLASSIFIER_SPECS):
            save_model(replace(pipe, classifier=fit(other, x, y)), tmp_path / f"sibling{i}.npz", memo=memo)
        save_model(pipe, tmp_path / "shared.npz", memo=memo)
        assert (tmp_path / "shared.npz").read_bytes() == ours.read_bytes()

    def test_one_memo_deflates_a_shared_table_once(self, rng, tmp_path, monkeypatch):
        dt_pipe = fitted_pipeline("word-vectors", ClassifierSpec(kind="dt"), rng)
        knn = fit(ClassifierSpec(kind="knn", hyperparameters={"k": 3}), *small_problem(rng))
        knn_pipe = replace(dt_pipe, classifier=knn)
        embeddings = dt_pipe.embeddings
        planes = form_planes(serialize._decimal_form(embeddings.matrix))
        distinct = {(plane.shape, plane.tobytes()) for plane in planes}
        assert len(planes) >= 2
        deflated, searched = [], []
        compress, search = serialize._deflate, serialize._decimal_form

        def counting_compress(array, setting):
            if (array.shape, array.tobytes()) in distinct:
                deflated.append(array)
            return compress(array, setting)

        def counting_search(matrix):
            searched.append(matrix)
            return search(matrix)

        monkeypatch.setattr(serialize, "_deflate", counting_compress)
        monkeypatch.setattr(serialize, "_decimal_form", counting_search)
        memo = {}
        save_model(dt_pipe, tmp_path / "dt.npz", memo=memo)
        save_model(knn_pipe, tmp_path / "knn.npz", memo=memo)
        assert len(deflated) == len(distinct)  # each distinct plane once
        save_model(knn_pipe, tmp_path / "alone.npz")  # no memo: deflated again
        assert len(deflated) == 2 * len(distinct)
        assert len(searched) == 1  # one table object: its decimal form is found once
        for name, pipe in (("dt", dt_pipe), ("knn", knn_pipe)):
            restored = load_model(tmp_path / f"{name}.npz")
            assert type(restored.classifier) is type(pipe.classifier)
            assert set(restored.embeddings.tokens) == set(embeddings.tokens)
            for w, i in zip(embeddings.tokens, embeddings.lookup(list(embeddings.tokens))):
                row = restored.embeddings.matrix[restored.embeddings.lookup([w])[0]]
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
        x, y = small_problem(rng, n=6)
        path = tmp_path / "model.npz"
        save_model(fit(ClassifierSpec(kind="dt"), x, y), path)
        data = path.read_bytes()
        for end in range(len(data)):  # cut at every byte offset
            path.write_bytes(data[:end])
            with pytest.raises(FormatError, match=re.escape(f"{path}: ")):
                load_model(path)
        path.write_bytes(b"not a model file")
        with pytest.raises(FormatError):
            load_model(path)


def stored(value):
    """The JSON node of ``value`` saved as ``{"x": value}``, and its member's array and deflate setting."""
    root, [(_, array, setting)] = encodings({"x": value})
    return root["items"]["x"], (array, setting)


class TestDeflateStrategy:
    """Byte planes deflated with ``Z_RLE`` for float64 members that shuffle well, numpy's deflate elsewhere."""

    @staticmethod
    def noise(rng, rows=300, columns=100):
        return rng.normal(size=(rows, columns))  # 240 KB

    @staticmethod
    def zero_heavy(rng, rows=300, columns=100):
        return np.where(rng.random((rows, columns)) < 0.9, 0.0, rng.normal(size=(rows, columns)))

    def test_strategy_rule(self, rng):
        noise = self.noise(rng)
        node, (planes, setting) = stored(noise)
        assert node == {"__kind__": "shuffled", "member": 0, "shape": [300, 100], "fortran_order": False}
        assert setting == (1, zlib.Z_RLE)
        assert planes.dtype == np.uint8 and planes.shape == (8, noise.size)
        for i in range(8):  # plane i is byte i of every little-endian value
            assert planes[i].tobytes() == noise.reshape(-1).view(np.uint8)[i::8].tobytes()
        for plain in (
            self.zero_heavy(rng),
            self.noise(rng, rows=80),  # 64 KB: not probed
            noise.astype(np.float32),
            noise.astype(">f8"),
        ):
            node, (array, setting) = stored(plain)
            assert node == {"__kind__": "array", "member": 0}
            assert array is plain and setting == (zlib.Z_DEFAULT_COMPRESSION, zlib.Z_DEFAULT_STRATEGY)

    def test_table_planes_and_their_settings(self, rng):
        # five-decimal noise: codes of 20 bits, two low byte planes of 300 KB that
        # barely compress and are stored, and four bit planes of 39 KB, under the probe floor
        table = EmbeddingTable(tuple(f"w{i}" for i in range(3000)), np.round(self.noise(rng, rows=3000), 5))
        ints = np.rint(table.matrix * 1e5).astype(np.int64)  # the rows in sorted token order
        codes = ((ints << 1) ^ (ints >> 63)).view(np.uint64)
        assert int(codes.max()).bit_length() == 20
        root, members = encodings(table)
        meta = root["fields"]
        assert meta["matrix"] is None and meta["form"]["type"] == "DecimalForm"
        form = meta["form"]["fields"]
        assert form["decimals"] == 5 and form["shape"] == {"__kind__": "tuple", "items": [3000, 100]}
        keys = [[node["member"] for node in form[field]["items"]] for field in ("byte_planes", "bit_planes")]
        assert keys == [[1, 2], [3, 4, 5, 6]]  # after the token list
        for i, key in enumerate(keys[0]):  # byte i of every little-endian code
            _, plane, setting = members[key]
            assert plane.dtype == np.uint8 and plane.shape == (3000, 100)
            assert plane.tobytes() == codes.view(np.uint8).reshape(-1, 8)[:, i].tobytes()
            assert setting == (0, zlib.Z_DEFAULT_STRATEGY)
        for j, key in enumerate(keys[1]):  # bit 16 + j of every code, eight columns to a byte
            _, plane, setting = members[key]
            assert plane.dtype == np.uint8 and plane.shape == (3000, 13)
            bits = (codes >> np.uint64(16 + j)) & np.uint64(1)
            assert plane.tobytes() == np.packbits(bits.astype(np.uint8), axis=1).tobytes()
            assert setting == (3, zlib.Z_DEFAULT_STRATEGY)

    def test_plane_probe_rule(self, rng):
        # a plane of over 64 KiB is deflated at level 3 when its sample deflates by a quarter, else stored
        random_bytes = rng.integers(0, 256, size=(3000, 100), dtype=np.uint8)
        mostly_zero = np.where(rng.random((3000, 100)) < 0.9, 0, random_bytes).astype(np.uint8)
        stored_blocks, level_three = (0, zlib.Z_DEFAULT_STRATEGY), (3, zlib.Z_DEFAULT_STRATEGY)
        assert serialize._plane_setting(random_bytes) == stored_blocks
        assert serialize._plane_setting(mostly_zero) == level_three
        assert serialize._plane_setting(random_bytes[:650]) == level_three  # 65,000 bytes: not probed
        sample = serialize._probe_sample(random_bytes.reshape(-1))
        assert sample.nbytes == 8 * 8192 and sample[:8192].tobytes() == random_bytes.tobytes()[:8192]
        for plane, setting in ((random_bytes, stored_blocks), (mostly_zero, level_three)):
            payload, sizes = serialize._deflate(plane, setting)
            assert zlib.decompress(payload, -15) == plane.tobytes()
            assert sizes == {"length": len(payload), "size": plane.nbytes, "crc": zlib.crc32(plane)}
            if setting == stored_blocks:  # stored blocks (block type 00): a few bytes of framing per block
                assert payload[0] >> 1 & 3 == 0 and len(payload) < 1.001 * plane.nbytes
            else:
                assert len(payload) < 0.75 * plane.nbytes

    def test_probe_reads_slices_across_the_member(self, rng):
        # 64 KiB of noise up front, whose planes alone deflate smaller with Z_RLE,
        # and zero-heavy values behind it, which LZ77 shrinks better as they are
        array = np.concatenate([rng.normal(size=8192), self.zero_heavy(rng, rows=2000).ravel()])
        head = array[:8192]
        assert stored(head)[0]["__kind__"] == "array"  # too small to probe
        planes = head.view(np.uint8).reshape(-1, 8).T.tobytes()
        sizes = []
        for data, strategy in ((planes, zlib.Z_RLE), (head.tobytes(), zlib.Z_DEFAULT_STRATEGY)):
            compressor = zlib.compressobj(1, zlib.DEFLATED, -15, 8, strategy)
            sizes.append(len(compressor.compress(data) + compressor.flush()))
        assert sizes[0] < sizes[1]
        assert stored(array)[0]["__kind__"] == "array"

    def test_mixed_strategies_read_back(self, rng, tmp_path):
        arrays = {"noise": self.noise(rng), "zeros": self.zero_heavy(rng), "small": rng.normal(size=8)}
        ours = tmp_path / "mixed.npz"
        save_model(arrays, ours)

        def deflated_size(data, level=zlib.Z_DEFAULT_COMPRESSION, strategy=zlib.Z_DEFAULT_STRATEGY):
            compressor = zlib.compressobj(level, zlib.DEFLATED, -15, 8, strategy)
            return len(compressor.compress(data) + compressor.flush())

        header, members = read_model(ours)
        assert len(members) == 3
        noise = arrays["noise"].reshape(-1).view(np.uint8).reshape(-1, 8)
        np.testing.assert_array_equal(members[0], noise.T)  # the noise member is its planes
        for i, name in ((1, "zeros"), (2, "small")):
            assert same_bits(members[i], arrays[name])
        sizes = [entry["length"] for entry in header["members"]]
        # the noise member is its byte planes with Z_RLE; the rest, and the header, at zlib's default
        assert sizes[0] == deflated_size(members[0].tobytes(), 1, zlib.Z_RLE)
        for i in (1, 2):
            assert sizes[i] == deflated_size(members[i].tobytes())
        header_length = int.from_bytes(ours.read_bytes()[12:20], "little")
        assert header_length == deflated_size(json.dumps(header).encode("utf-8"))
        restored = load_model(ours)
        assert restored.keys() == arrays.keys()
        for name, array in arrays.items():
            assert same_bits(restored[name], array)
            assert not restored[name].flags.writeable


def large_model(rng):
    """A word-vector pipeline, a 3000 x 100 five-decimal table and 240 KB of dense float64 values.

    The table's byte planes are stored and its bit planes deflated; the values are shuffled.
    """
    table = EmbeddingTable(tuple(f"w{i}" for i in range(3000)), np.round(rng.normal(size=(3000, 100)), 5))
    pipe = fitted_pipeline("word-vectors", ClassifierSpec(kind="dt"), rng)
    return {"pipe": pipe, "table": table, "components": rng.normal(size=(300, 100))}


class TestSaveMemo:
    """A memo keyed by object: a second save under it redoes no probe, shuffle or deflate of an object it has seen."""

    def test_second_save_under_a_memo_repeats_no_work(self, rng, tmp_path, monkeypatch):
        # three tree models: the dt of the large model, and the dt and rf of a voting ensemble
        model = {**large_model(rng), "voting": fitted_pipeline("word-vectors", default_voting_spec(), rng)}
        counted = ("_shuffles", "_plane_setting", "_byte_planes", "_deflate", "_tree_layout")
        calls = []
        for name in counted:
            work = getattr(serialize, name)
            monkeypatch.setattr(serialize, name, lambda *a, _name=name, _work=work: calls.append(_name) or _work(*a))
        memo = {}
        save_model(model, tmp_path / "first.npz", memo=memo)
        assert set(counted) == set(calls)
        assert calls.count("_tree_layout") == 3  # once per tree model, not once per stored tree array
        calls.clear()
        save_model(model, tmp_path / "second.npz", memo=memo)
        # a tree model's five stored arrays are derived afresh at each save, and the header is deflated
        assert Counter(calls) == {"_tree_layout": 3, "_deflate": 3 * 5 + 1}
        save_model(model, tmp_path / "alone.npz")
        assert (tmp_path / "second.npz").read_bytes() == (tmp_path / "alone.npz").read_bytes()
        assert (tmp_path / "first.npz").read_bytes() == (tmp_path / "alone.npz").read_bytes()

    def test_memo_keeps_no_array_alive_and_never_takes_a_dead_one_for_a_new_one(self, rng, tmp_path):
        memo = {}
        x, z = rng.normal(size=(300, 100)), np.arange(10.0)  # shuffled, and a plain member that is z itself
        seen = [weakref.ref(x), weakref.ref(z)]
        save_model({"x": x, "z": z}, tmp_path / "x.npz", memo=memo)
        assert stored(x)[0]["__kind__"] == "shuffled" and stored(z)[0]["__kind__"] == "array"
        dead = id(x)
        del x, z
        assert [ref() for ref in seen] == [None, None]
        # a new array that got the dead one's id is encoded afresh, not written with its payload
        y = rng.normal(size=(300, 100))
        memo[serialize._array_encoding, id(y)] = memo.pop((serialize._array_encoding, dead))
        save_model({"x": y}, tmp_path / "y.npz", memo=memo)
        assert same_bits(load_model(tmp_path / "y.npz")["x"], y)

    def test_equal_models_give_equal_files(self, tmp_path):
        def build():
            rng = np.random.default_rng(7)
            return large_model(rng)

        save_model(build(), tmp_path / "a.npz")
        save_model(build(), tmp_path / "b.npz")
        memo = {}
        for name in ("c", "d"):  # equal arrays of other objects: encoded again, to the same bytes
            save_model(build(), tmp_path / f"{name}.npz", memo=memo)
        files = [(tmp_path / f"{name}.npz").read_bytes() for name in "abcd"]
        assert files[1:] == files[:1] * 3

    def test_loaded_model_resaves_byte_for_byte(self, rng, tmp_path):
        save_model(large_model(rng), tmp_path / "model.npz")
        loaded = load_model(tmp_path / "model.npz")
        assert isinstance(loaded["table"].form, DecimalForm)
        save_model(loaded, tmp_path / "again.npz")
        assert (tmp_path / "again.npz").read_bytes() == (tmp_path / "model.npz").read_bytes()
        sizes = {entry["size"]: entry["length"] for entry in read_model(tmp_path / "model.npz")[0]["members"]}
        assert sizes[300000] > 300000  # the byte planes are stored: a few bytes of framing each


@st.composite
def shuffled_members(draw):
    """A float64 array of over 64 KiB that the probe shuffles, in C or Fortran order or a strided view.

    Normal noise, with NaNs of random payloads and either sign, infinities,
    ``-0.0`` and subnormals sprinkled over it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, columns = draw(st.integers(100, 160)), draw(st.integers(90, 120))
    values = rng.normal(size=(2 * rows, columns + 3))
    special = rng.random(values.shape) < draw(st.sampled_from([0.0, 0.01, 0.2]))
    sign = rng.integers(0, 2, size=values.shape, dtype=np.uint64) << np.uint64(63)
    payload = rng.integers(1, 1 << 52, size=values.shape, dtype=np.uint64)
    kinds = [
        sign | np.uint64(0x7FF << 52) | payload,  # NaN
        sign | np.uint64(0x7FF << 52),  # infinity
        sign,  # zero of either sign
        sign | payload,  # subnormal
    ]
    bits = np.choose(rng.integers(0, len(kinds), size=values.shape), kinds)
    values[special] = bits.view(np.float64)[special]
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        return values[::2, 1:-2]
    values = values[:rows, :columns]
    return np.ascontiguousarray(values) if layout == "C" else np.asfortranarray(values)


class TestShuffledMembers:
    @given(array=shuffled_members())
    def test_round_trip_bit_for_bit(self, array, tmp_path_factory):
        node, _ = stored(array)
        fortran_order = array.flags.f_contiguous and not array.flags.c_contiguous
        assert node == {"__kind__": "shuffled", "member": 0, "shape": list(array.shape), "fortran_order": fortran_order}
        path = tmp_path_factory.mktemp("shuffled") / "m.npz"
        save_model({"x": array}, path)
        restored = load_model(path)["x"]
        assert same_bits(restored, array)
        assert np.isfortran(restored) == fortran_order and not restored.flags.writeable

    @pytest.mark.parametrize(
        "node_change, planes_change, message",
        [
            ({}, lambda planes: planes[:7], "needs 8 uint8 byte planes"),
            ({}, lambda planes: planes[:, 1:], "needs 8 uint8 byte planes"),
            ({}, lambda planes: planes.astype(np.int16), "needs 8 uint8 byte planes"),
            ({"shape": [3, 100]}, None, "needs 8 uint8 byte planes"),
            ({"shape": [300, -100]}, None, "malformed shuffled node"),
            ({"fortran_order": None}, None, "malformed shuffled node"),
            ({"member": 9}, None, "missing member 9"),
        ],
        ids=["seven-planes", "fewer-values", "planes-dtype", "shape", "negative-dimension", "order", "missing"],
    )
    def test_member_that_is_not_eight_planes_of_its_values_refused(
        self, node_change, planes_change, message, rng, tmp_path
    ):
        path = tmp_path / "m.npz"
        save_model({"x": rng.normal(size=(300, 100))}, path)
        header, arrays = read_model(path)
        header["root"]["items"]["x"].update(node_change)
        if planes_change is not None:
            arrays[0] = planes_change(arrays[0])
        write_model(path, header["root"], arrays)
        where = re.escape(f"{path}: ")
        if message.startswith("needs"):
            where += re.escape("shuffled member 0 ")
        with pytest.raises(FormatError, match=where + ".*" + re.escape(message)):
            load_model(path)


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
        np.testing.assert_array_equal(restored.matrix[restored.lookup(["a"])[0]], [1.0, 2.0])


class TestFormatGuards:
    def tamper(self, path, mutate, version=FORMAT_VERSION):
        """Rewrite the model at ``path`` as format ``version`` after ``mutate(root)``."""
        header, arrays = read_model(path)
        mutate(header["root"])
        write_model(path, header["root"], arrays, version)

    def saved_model(self, rng, tmp_path):
        x, y = small_problem(rng, n=6)
        path = tmp_path / "m.npz"
        save_model(fit(ClassifierSpec(kind="dt"), x, y), path)
        return path

    @pytest.mark.parametrize("version", [FORMAT_VERSION - 1, FORMAT_VERSION + 1])
    def test_wrong_version_refused(self, version, rng, tmp_path):
        path = self.saved_model(rng, tmp_path)
        self.tamper(path, lambda root: None, version)
        message = f"{path}: model format version {version} is not supported (this build reads version {FORMAT_VERSION})"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_model(path)

    def test_version_one_pipeline_refused(self, tmp_path):
        # a v1 pipeline still carries the bow_vocabulary field of that layout
        path = tmp_path / "pipe.npz"
        save_model(PipelineModel("xx", "ext", "precomputed", TokenizerSpec()), path)
        self.tamper(path, lambda root: root["fields"].update(bow_vocabulary=None), version=1)
        with pytest.raises(FormatError, match="version 1"):
            load_model(path)

    def test_version_two_model_refused(self, rng, tmp_path):
        # a v2 forest is a list of tree objects, not packed node arrays
        path = tmp_path / "rf.npz"
        x, y = small_problem(rng, n=6)
        save_model(fit(ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 2}), x, y), path)

        def mutate(root):
            fields = root["fields"]
            for name in set(fields) - {"spec", "input_dim", "n_labels"}:
                del fields[name]
            fields["trees"] = {"__kind__": "list", "items": []}

        self.tamper(path, mutate, version=2)
        with pytest.raises(FormatError, match="version 2 is not supported"):
            load_model(path)

    def test_version_three_model_refused(self, tmp_path):
        # a v3 word-vector table is its float64 matrix, without decimals or negative zeros
        path = tmp_path / "emb.npz"
        save_model(EmbeddingTable(("a", "b"), np.array([[0.5, -1.25], [2.0, -0.0]])), path)
        self.tamper(path, lambda root: root["fields"].pop("form"), version=3)
        with pytest.raises(FormatError, match="version 3 is not supported"):
            load_model(path)

    def test_version_four_model_refused(self, rng, tmp_path):
        # a v4 file names PCA components as a plain array member, never a shuffled one
        path = tmp_path / "pca.npz"
        save_model(fit_pca(rng.normal(size=(200, 100))), path)
        self.tamper(path, lambda root: root["fields"].update(components={"__kind__": "array", "member": 1}), 4)
        message = f"{path}: model format version 4 is not supported (this build reads version {FORMAT_VERSION})"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_model(path)

    def test_version_five_model_refused(self, tmp_path):
        # a v5 word-vector table is one (width, tokens, dimension) member of byte planes, deflated whole
        path = tmp_path / "emb.npz"
        save_model(EmbeddingTable(("a", "b"), np.array([[0.5, -1.25], [2.0, -0.0]])), path)

        def mutate(root):
            fields = root["fields"]
            form = fields.pop("form")["fields"]
            fields.update(decimals=form["decimals"], matrix=form["bit_planes"]["items"][0])
            fields["negative_zeros"] = form["negative_zeros"]

        self.tamper(path, mutate, version=5)
        message = f"{path}: model format version 5 is not supported (this build reads version {FORMAT_VERSION})"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_model(path)

    def test_version_seven_model_refused(self, tmp_path):
        # a v7 word-vector table kept its tokens in file order, unsorted
        path = tmp_path / "emb.npz"
        save_model(EmbeddingTable(("a", "b"), np.array([[0.5, -1.25], [2.0, -0.0]])), path)
        header, arrays = read_model(path)
        arrays[header["root"]["fields"]["tokens"]["member"]] = np.frombuffer(b"b\na", dtype=np.uint8)
        write_model(path, header["root"], arrays, version=7)
        message = f"{path}: model format version 7 is not supported (this build reads version {FORMAT_VERSION})"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_model(path)

    def test_unknown_type_refused(self, rng, tmp_path):
        path = self.saved_model(rng, tmp_path)
        self.tamper(path, lambda root: root.update(type="EvilThing"))
        with pytest.raises(FormatError, match="EvilThing"):
            load_model(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda header: header.update(root=[1]), "malformed model node [1]"),
            (
                lambda header: header["root"]["fields"]["classifier"]["fields"].update(feature={"__kind__": "array"}),
                "model structure names a missing member None",
            ),
            (
                lambda header: header["root"]["fields"].update(emotions={"__kind__": "list"}),
                "malformed model node {'__kind__': 'list'}",
            ),
            (lambda header: header["root"]["fields"].pop("emotions"), "a PipelineModel node needs the fields"),
            (lambda header: header["root"]["fields"].update(extra=1), "a PipelineModel node needs the fields"),
            (
                lambda header: header["root"]["fields"]["tfidf"]["fields"]["vocabulary"]["fields"].update(
                    document_frequency=5
                ),
                "the document_frequency field of a Vocabulary node must hold an array, got int",
            ),
            (
                lambda header: header["root"]["fields"].update(classifier=3),
                "the classifier field of a PipelineModel node must hold DecisionTree or RandomForest or",
            ),
            (
                lambda header: header["root"]["fields"]["classifier"]["fields"].update(input_dim="4"),
                "the input_dim field of a DecisionTree node must hold an int, got str",
            ),
            (
                lambda header: header["root"]["fields"]["tfidf"].update(type="PcaModel"),
                "a PcaModel node needs the fields",
            ),
        ],
        ids=[
            "root-not-a-node", "array-without-member", "list-without-items", "missing-field", "extra-field",
            "document-frequency-number", "classifier-number", "input-dim-string", "tfidf-of-another-type",
        ],
    )
    def test_malformed_structure_is_a_format_error(self, mutate, message, rng, tmp_path, capsys):
        from polyemo.cli import main

        path = tmp_path / "m.npz"
        save_model(fitted_pipeline("tfidf", ClassifierSpec(kind="dt"), rng), path)
        header, arrays = read_model(path)
        mutate(header)
        write_model(path, header["root"], arrays)
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            load_model(path)
        texts = tmp_path / "texts.csv"
        texts.write_text("id,text\nd0,joy smile\n")
        assert main(["predict", "--model", str(path), "--input", str(texts), "--out", str(tmp_path / "p.csv")]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    def test_never_unpickles(self, tmp_path):
        # object arrays require pickling; loading a container holding one must
        # fail loudly rather than quietly unpickle
        path = tmp_path / "obj.npz"
        entry, payload = entry_and_payload(np.zeros(1, dtype=np.int64))
        entry["dtype"] = "|O"
        path.write_bytes(pack({"root": {"__kind__": "array", "member": 0}, "members": [entry]}, [payload]))
        message = "damaged model member 0: dtype '|O' is not a bool, integer or float type"
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
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


def code_bits(values: np.ndarray) -> int:
    """The bit length of the largest zigzag code of the mantissas in ``values`` (0 for none or all zero)."""
    return max((2 * m if m >= 0 else -2 * m - 1 for m in values.ravel().tolist()), default=0).bit_length()


def plane_counts(bits: int) -> tuple[int, int]:
    """``(byte planes, bit planes)`` of codes of ``bits`` bits: the bytes below the top one, and its used bits."""
    low = max(0, bits - 1) // 8
    return low, bits - 8 * low


@st.composite
def decimal_tables(draw, code_lengths=st.integers(0, 64)):
    """``(matrix, decimals, mantissas)``: each value the float nearest ``mantissa / 10**decimals``.

    The largest zigzag code takes exactly ``bits`` bits, drawn from
    ``code_lengths`` (0 to 64), some rows use fewer decimals than others, and some values are ``-0.0``.
    Past 48 bits a mantissa comes with 0 decimals and is an integer a
    float64 holds exactly, up to the float nearest 2**63 below it on either
    side.
    """
    rows, columns = draw(st.integers(0, 30)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = draw(code_lengths)
    half = 1 << max(0, bits - 1)  # codes below 2**bits are mantissas in [-half, half)
    if bits == 0:
        decimals, mantissas, extreme = draw(st.integers(0, MAX_DECIMALS)), np.zeros((rows, columns), np.int64), 0
    elif bits <= 48:
        decimals = draw(st.integers(0, MAX_DECIMALS))
        mantissas = rng.integers(-half, half, size=(rows, columns))
        extreme = -half  # code 2**bits - 1, and no power of two is a multiple of 10
    else:
        decimals = 0
        top = float(half - 1) if bits <= 53 else np.nextafter(float(half), 0.0)
        mantissas = np.clip(rng.integers(-half + 1, half, size=(rows, columns)).astype(np.float64), -top, top)
        mantissas = mantissas.astype(np.int64)
        extreme = int(-top) if draw(st.booleans()) else int(top)
    for row in np.flatnonzero(rng.random(rows) < draw(st.floats(0, 1))):
        step = 10 ** int(rng.integers(0, decimals + 1))  # fewer decimals in this row, rounded toward 0
        mantissas[row] = np.sign(mantissas[row]) * (np.abs(mantissas[row]) // step * step)
    matrix = mantissas / 10.0**decimals
    signed = rng.random(matrix.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    if mantissas.size:
        at = np.unravel_index(int(rng.integers(0, mantissas.size)), mantissas.shape)
        mantissas[at], matrix[at], signed[at] = extreme, extreme / 10.0**decimals, False
        assert code_bits(mantissas) == bits
    matrix[signed] = -0.0
    mantissas[signed] = 0
    return matrix, decimals, mantissas


def restore_decimals_reference(form: DecimalForm) -> np.ndarray:
    """The float64 matrix of a valid DecimalForm: every zigzag code assembled bit by bit, decoded, converted, divided."""
    rows, columns = form.shape
    low = len(form.byte_planes)
    codes = [
        sum(int(plane[r, c]) << (8 * i) for i, plane in enumerate(form.byte_planes))
        + sum((int(plane[r, c // 8]) >> (7 - c % 8) & 1) << (8 * low + j) for j, plane in enumerate(form.bit_planes))
        for r in range(rows)
        for c in range(columns)
    ]
    ints = np.array([c // 2 if c % 2 == 0 else -(c + 1) // 2 for c in codes], dtype=np.int64)
    matrix = ints.astype(np.float64)
    matrix /= float(10**form.decimals)
    matrix[form.negative_zeros] = -0.0
    return matrix.reshape(rows, columns)


def form_fields(decimals, shape, byte_planes, bit_planes, negative_zeros) -> dict:
    """The fields ``_decode_form`` reads, as a load decodes them."""
    return {
        "decimals": decimals,
        "shape": shape,
        "byte_planes": list(byte_planes),
        "bit_planes": list(bit_planes),
        "negative_zeros": negative_zeros,
    }


class TestDecimalTables:
    @given(
        table=decimal_tables(),
        block_values=st.sampled_from([1, 7, 1 << 16]),
        keep=st.lists(st.booleans(), min_size=30, max_size=30),
    )
    def test_decimal_tables_round_trip_bit_for_bit(self, table, block_values, keep, tmp_path_factory):
        self.assert_round_trip(table, block_values, keep, tmp_path_factory)

    @pytest.mark.parametrize("bits", range(1, 65))
    @settings(max_examples=4)
    @given(data=st.data())
    def test_every_code_bit_length_round_trips(self, bits, data, tmp_path_factory):
        table = data.draw(decimal_tables(st.just(bits)))
        assume(len(table[0]))  # a table of no rows has no largest code
        keep = data.draw(st.lists(st.booleans(), min_size=30, max_size=30))
        self.assert_round_trip(table, 1 << 16, keep, tmp_path_factory)

    @staticmethod
    def assert_round_trip(table, block_values, keep, tmp_path_factory):
        matrix, decimals, mantissas = table
        # the fewest decimals the values need, and their mantissas at it
        while decimals and not (mantissas % 10).any():
            decimals, mantissas = decimals - 1, mantissas // 10
        with mock.patch.object(serialize, "_BLOCK_VALUES", block_values):
            form = serialize._decimal_form(matrix)
        assert form.decimals == decimals and form.shape == matrix.shape
        low, top_bits = plane_counts(code_bits(mantissas))
        assert (len(form.byte_planes), len(form.bit_planes)) == (low, top_bits)
        assert all(plane.dtype == np.uint8 and plane.shape == matrix.shape for plane in form.byte_planes)
        packed = (len(matrix), -(-matrix.shape[1] // 8))
        assert all(plane.dtype == np.uint8 and plane.shape == packed for plane in form.bit_planes)
        signed = np.flatnonzero((matrix == 0) & np.signbit(matrix))
        np.testing.assert_array_equal(form.negative_zeros, signed)
        assert same_bits(restore_decimals_reference(form), matrix)
        path = tmp_path_factory.mktemp("decimal") / "emb.npz"
        tokens = tuple(f"w{i}" for i in range(len(matrix)))
        save_model(EmbeddingTable(tokens, matrix, "xx", "xx.vec"), path)
        assert [array.dtype for array in read_model(path)[1]] == [np.uint8] * (1 + low + top_bits) + [np.int64]
        restored = load_model(path)
        assert restored.tokens == tuple(sorted(tokens))
        at = restored.lookup(list(tokens))  # the row of each token, compared per token
        by_row = matrix[np.argsort(at)]  # the matrix in the table's row order
        ids = np.flatnonzero(keep[: len(matrix)])  # an ascending subset of the rows
        assert same_bits(restored.form.rows(ids), by_row[ids])
        assert same_bits(restored.matrix[at], matrix)

    def test_a_block_needing_more_decimals_restarts_the_search(self):
        # row 0 alone is exact at 0 decimals; row 1 needs 3, which turns 100 into
        # 100000, whose zigzag code 200000 (0x30d40) takes 18 bits: two byte
        # planes, and bits 16 and 17, both set, of its top byte 3
        matrix = np.array([[100.0], [0.001]])
        with mock.patch.object(serialize, "_BLOCK_VALUES", 1):
            form = serialize._decimal_form(matrix)
        assert (form.decimals, form.shape) == (3, (2, 1))
        assert [plane[:, 0].tolist() for plane in form.byte_planes] == [[64, 2], [13, 0]]
        assert [plane[:, 0].tolist() for plane in form.bit_planes] == [[128, 0], [128, 0]]
        restored = serialize._decode_form(form_fields(3, (2, 1), form.byte_planes, form.bit_planes, form.negative_zeros))
        assert same_bits(restored.rows(np.arange(2)), matrix)

    @given(
        decimals=st.integers(0, MAX_DECIMALS),
        low=st.integers(0, 7),
        top_bits=st.integers(0, 8),
        rows=st.integers(0, 20),
        columns=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_restore_gives_the_bits_of_convert_then_divide(
        self, decimals, low, top_bits, rows, columns, seed
    ):
        # uint32 codes up to 4 bytes, uint64 past them: both give the reference bits
        rng = np.random.default_rng(seed)
        zeros = rng.random((rows, columns)) < 0.3
        byte_planes = rng.integers(0, 256, size=(low, rows, columns), dtype=np.uint8)
        byte_planes[:, zeros] = 0
        bits = rng.integers(0, 2, size=(top_bits, rows, columns), dtype=np.uint8)
        bits[:, zeros] = 0
        bit_planes = [np.packbits(plane, axis=1) for plane in bits]
        signed = zeros & (rng.random((rows, columns)) < 0.5)
        fields = form_fields(decimals, (rows, columns), byte_planes, bit_planes, np.flatnonzero(signed).astype(np.int64))
        form = serialize._decode_form(fields)
        whole = restore_decimals_reference(form)
        assert same_bits(form.rows(np.arange(rows)), whole)
        # rows restored on demand: none, each one alone, and an ascending subset
        subset = np.flatnonzero(rng.random(rows) < 0.5)
        for ids in [np.array([], dtype=np.int64), subset, *(np.array([i]) for i in range(rows))]:
            assert same_bits(form.rows(ids), whole[ids])
        if rows >= 2:
            for ids in ([1, 0], [1, 1]):
                with pytest.raises(ValueError, match="ascending and distinct"):
                    form.rows(np.array(ids))

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
        tokens = [f"w{i}" for i in range(len(matrix))]
        save_model(EmbeddingTable(tuple(tokens), matrix), path)
        header, arrays = read_model(path)
        meta = header["root"]["fields"]
        assert meta["form"] is None
        loaded = load_model(path)
        at = loaded.lookup(tokens)  # the row of each token, compared per token
        assert same_bits(arrays[meta["matrix"]["member"]][at], matrix)
        assert same_bits(loaded.matrix[at], matrix)


def saved_word_vector_model(rng, path):
    """A word-vector pipeline whose five-decimal table holds a ``-0.0``, saved at ``path``."""
    pipe = fitted_pipeline("word-vectors", ClassifierSpec(kind="dt"), rng)
    table = pipe.embeddings
    matrix = table.matrix.copy()
    matrix[0, 0] = -0.0
    pipe = replace(pipe, embeddings=EmbeddingTable(table.tokens, matrix, table.language, table.source))
    save_model(pipe, path)
    return pipe


def payload_spans(path) -> list[tuple[int, int]]:
    """``(offset, length)`` of the deflated header, then of each member's payload, in the model file at ``path``."""
    spans = [(32, int.from_bytes(path.read_bytes()[12:20], "little"))]
    for entry in read_model(path)[0]["members"]:
        spans.append((sum(spans[-1]), entry["length"]))
    return spans


def flip_payload_byte(data: bytes, span: tuple[int, int]) -> bytes:
    """``data`` with the middle byte of the payload at ``span``, an ``(offset, length)`` pair, inverted."""
    offset, length = span
    damaged = bytearray(data)
    damaged[offset + length // 2] ^= 0xFF
    return bytes(damaged)


def rewrite(path, mutate):
    """Rewrite the model at ``path`` after ``mutate(form fields, arrays)``; the root is a pipeline."""
    header, arrays = read_model(path)
    mutate(header["root"]["fields"]["embeddings"]["fields"]["form"]["fields"], arrays)
    write_model(path, header["root"], arrays)


def set_member(field, change, index=None):
    """A mutation replacing the member of form field ``field`` (item ``index`` of its list) by ``change(member)``."""

    def mutate(fields, arrays):
        node = fields[field] if index is None else fields[field]["items"][index]
        arrays[node["member"]] = change(arrays[node["member"]])

    return mutate


def set_bit(plane):
    """``plane`` with the top bit of its first byte set: bit 0 of value 0, the table's ``-0.0``."""
    plane = plane.copy()
    plane[0, 0] |= 0x80
    return plane


def repeat_plane(field, times):
    """A mutation listing the first plane of form field ``field`` ``times`` times."""

    def mutate(fields, arrays):
        fields[field]["items"] = fields[field]["items"][:1] * times

    return mutate


def one_row_more(fields, arrays):
    """A form of one row more than the table has tokens: a zero row below every plane."""
    fields["shape"]["items"][0] += 1
    for field in ("byte_planes", "bit_planes"):
        for node in fields[field]["items"]:
            plane = arrays[node["member"]]
            arrays[node["member"]] = np.vstack([plane, np.zeros_like(plane[:1])])


def rename_member(fields, arrays):
    fields["negative_zeros"]["member"] = 999


# the table of saved_word_vector_model: 10 tokens of dimension 4, two byte planes and three bit planes
BYTE_PLANE, BIT_PLANE, NEGATIVE_ZEROS = 3, 5, 7  # byte plane 1, bit plane 1 and the indices


class TestDamagedFiles:
    def test_word_vector_model_round_trips_its_negative_zero(self, rng, tmp_path):
        pipe = saved_word_vector_model(rng, tmp_path / "wv.npz")
        restored = load_model(tmp_path / "wv.npz")
        assert same_bits(restored.embeddings.matrix, pipe.embeddings.matrix)
        assert np.signbit(restored.embeddings.matrix[0, 0])
        np.testing.assert_array_equal(restored.predict_texts(TEXTS), pipe.predict_texts(TEXTS))
        form = restored.embeddings.form
        assert (form.shape, len(form.byte_planes), len(form.bit_planes)) == ((10, 4), 2, 3)
        fields = read_model(tmp_path / "wv.npz")[0]["root"]["fields"]["embeddings"]["fields"]["form"]["fields"]
        keys = [fields["byte_planes"]["items"][1]["member"], fields["bit_planes"]["items"][1]["member"]]
        assert keys + [fields["negative_zeros"]["member"]] == [BYTE_PLANE, BIT_PLANE, NEGATIVE_ZEROS]

    def test_every_damaged_member_is_a_format_error(self, rng, tmp_path):
        path = tmp_path / "wv.npz"
        saved_word_vector_model(rng, path)
        data = path.read_bytes()
        spans = payload_spans(path)
        assert len(spans) > 10  # the header, and the table's tokens, planes and negative zeros among the members
        for span in spans:
            path.write_bytes(flip_payload_byte(data, span))
            with pytest.raises(FormatError, match=re.escape(str(path))):
                load_model(path)

    @pytest.mark.parametrize(
        "mutate, member, message",
        [
            (repeat_plane("byte_planes", 8), None, "byte planes must be a list of at most 7"),
            (repeat_plane("bit_planes", 9), None, "bit planes must be a list of at most 8"),
            (set_member("byte_planes", lambda p: p[1:], 1), BYTE_PLANE, "byte plane 1 of a 10 x 4"),
            (set_member("byte_planes", lambda p: p.astype(np.int16), 1), BYTE_PLANE, "byte plane 1 of a 10 x 4"),
            (set_member("bit_planes", lambda p: p[1:], 1), BIT_PLANE, "bit plane 1 of a 10 x 4"),
            (set_member("bit_planes", lambda p: np.repeat(p, 2, axis=1), 1), BIT_PLANE, "bit plane 1 of a 10 x 4"),
            (set_member("bit_planes", lambda p: p.astype(np.int16), 1), BIT_PLANE, "bit plane 1 of a 10 x 4"),
            (set_member("bit_planes", lambda p: p | 0x01, 1), BIT_PLANE, "bit plane 1 of the embedding table has nonzero pad bits"),
            (set_member("bit_planes", set_bit, 1), BIT_PLANE, "negative-zero index names a set bit of its bit plane 1"),
            (set_member("byte_planes", lambda p: p + (p == 0), 1), BYTE_PLANE, "negative-zero index names a set bit of its byte plane 1"),
            (set_member("negative_zeros", lambda nz: np.array([1 << 40])), NEGATIVE_ZEROS, "negative-zero"),
            (set_member("negative_zeros", lambda nz: np.array([-1])), NEGATIVE_ZEROS, "negative-zero"),
            (set_member("negative_zeros", lambda nz: nz.astype(np.int32)), NEGATIVE_ZEROS, "negative-zero"),
            (lambda fields, arrays: fields.update(decimals=MAX_DECIMALS + 1), None, "decimals"),
            (lambda fields, arrays: fields.update(decimals=True), None, "decimals"),
            (lambda fields, arrays: fields["shape"].update(items=[12, -4]), None, "malformed embedding table shape"),
            (one_row_more, None, "embedding table of 10 tokens needs a (10, dimension) matrix, got shape (11, 4)"),
            (rename_member, None, "missing member 999"),
        ],
        ids=[
            "eight-byte-planes", "nine-bit-planes", "byte-plane-rows", "byte-plane-dtype", "bit-plane-rows",
            "bit-plane-width", "bit-plane-dtype", "pad-bits", "zero-in-bit-plane", "zero-in-byte-plane",
            "index-past-end", "index-negative", "index-dtype", "decimals-range", "decimals-bool",
            "negative-dimension", "shape-rows", "missing-member",
        ],
    )
    def test_table_that_does_not_fit_its_planes_refused(self, mutate, member, message, rng, tmp_path):
        path = tmp_path / "wv.npz"
        saved_word_vector_model(rng, path)
        rewrite(path, mutate)
        where = f"{path}: " + ("" if member is None else f"member {member!r}: ")
        with pytest.raises(FormatError, match=re.escape(where) + ".*" + re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("cut", [lambda df: df[:2], lambda df: df[:, None]], ids=["two-of-ten", "2-d"])
    def test_document_frequencies_not_one_per_token_refused(self, cut, rng, tmp_path, capsys):
        # once such a model loaded and predicted, and a re-save failed with a KeyError
        path = tmp_path / "tfidf.npz"
        save_model(fitted_pipeline("tfidf", ClassifierSpec(kind="dt"), rng), path)
        header, arrays = read_model(path)
        member = header["root"]["fields"]["tfidf"]["fields"]["vocabulary"]["fields"]["document_frequency"]["member"]
        assert arrays[member].shape == (10,)
        arrays[member] = cut(arrays[member])
        write_model(path, header["root"], arrays)
        where = re.escape(f"{path}: member {member}: ") + ".*" + re.escape("one per token")
        with pytest.raises(FormatError, match=where):
            load_model(path)
        assert_predict_refuses(path, f"member {member}: ", "one per token", tmp_path, capsys)

    def test_damaged_model_is_a_cli_error_not_a_traceback(self, rng, tmp_path, capsys):
        from polyemo.cli import main

        path = tmp_path / "wv.npz"
        saved_word_vector_model(rng, path)
        sizes = [entry["size"] for entry in read_model(path)[0]["members"]]
        largest = payload_spans(path)[1 + sizes.index(max(sizes))]
        path.write_bytes(flip_payload_byte(path.read_bytes(), largest))
        texts = tmp_path / "texts.csv"
        texts.write_text("id,text\nd0,joy smile\n")
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(path), "--input", str(texts), "--out", str(out)]) == 2
        assert f"error: {path}: damaged model member" in capsys.readouterr().err
        assert not out.exists()


class TestLoadedWordVectorModels:
    """A loaded table keeps its decimal form and restores only the rows a request reads."""

    @given(
        table=decimal_tables(),
        docs=st.lists(st.lists(st.integers(-3, 29), max_size=8), max_size=6),
    )
    def test_features_equal_the_in_memory_pipeline(self, table, docs, tmp_path_factory):
        matrix = table[0]
        assume(len(matrix))
        tokens = tuple(f"w{i}" for i in range(len(matrix)))
        # a negative number is an out-of-vocabulary word; the last two texts hit no row
        texts = [" ".join(f"w{i}" if i >= 0 else f"oov{-i}" for i in doc) for doc in docs]
        texts += ["oov1 oov2", ""]
        pipe = PipelineModel(
            "xx", "wv", "word-vectors", TokenizerSpec(), embeddings=EmbeddingTable(tokens, matrix, "xx", "xx.vec")
        )
        path = tmp_path_factory.mktemp("features") / "wv.npz"
        save_model(pipe, path)
        loaded = load_model(path)
        assert isinstance(loaded.embeddings.form, DecimalForm)
        assert same_bits(loaded.features(texts), pipe.features(texts))

    def test_predict_restores_only_the_rows_its_batch_hits(self, rng, tmp_path, monkeypatch):
        model = tmp_path / "wv.npz"
        pipe = saved_word_vector_model(rng, model)
        texts = ["joy smile", "nothing known", "smile gloom joy"]
        expected = pipe.predict_texts(texts)
        hit = sorted(pipe.embeddings.lookup(["joy", "smile", "gloom"]).tolist())
        assert len(hit) < len(pipe.embeddings)
        batch = tmp_path / "texts.csv"
        batch.write_text("id,text\n" + "".join(f"d{i},{t}\n" for i, t in enumerate(texts)), encoding="utf-8")
        restored = []
        rows = DecimalForm.rows

        def spy(form, ids):
            restored.append(ids.tolist())
            return rows(form, ids)

        monkeypatch.setattr(DecimalForm, "rows", spy)
        monkeypatch.setattr(EmbeddingTable, "matrix", property(lambda t: pytest.fail("built the whole table")))
        assert predict_file(model, batch, tmp_path / "out.csv") == len(texts)
        assert restored == [hit]
        np.testing.assert_array_equal(read_predictions(tmp_path / "out.csv")[1], expected)

    @pytest.mark.parametrize("stored", ["decimal-form", "float64"])
    def test_resaving_a_loaded_table_writes_its_bytes_without_a_search(
        self, stored, rng, tmp_path, monkeypatch
    ):
        original = tmp_path / "model.npz"
        if stored == "decimal-form":
            saved_word_vector_model(rng, original)
        else:
            save_model(EmbeddingTable(("a", "b"), rng.normal(size=(2, 3))), original)
        searches = []
        monkeypatch.setattr(serialize, "_decimal_form", searches.append)
        save_model(load_model(original), tmp_path / "again.npz")
        assert (tmp_path / "again.npz").read_bytes() == original.read_bytes()
        assert searches == []


def assert_predict_refuses(path, where, message, tmp_path, capsys):
    """``polyemo predict`` with the model at ``path`` exits 2 with an error naming it, ``where`` and ``message``."""
    from polyemo.cli import main

    texts = tmp_path / "texts.csv"
    texts.write_text("id,text\nd0,joy smile\n")
    assert main(["predict", "--model", str(path), "--input", str(texts), "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {where}" in err and message in err and "Traceback" not in err


UNSORTED = ("zeta", "alpha", "été", "abcdefgh2", "abcdefgh", "abcdefgh10", "a\x00b", "𝄞", "b")


class TestSortedTables:
    """A table keeps its tokens sorted, and a load checks the stored order."""

    def test_unsorted_input_gives_the_same_lookups_and_rows_after_a_round_trip(self, rng, tmp_path):
        matrix = np.round(rng.normal(size=(len(UNSORTED), 5)), 4)
        table = EmbeddingTable(UNSORTED, matrix, "xx", "xx.vec")
        assert table.tokens == tuple(sorted(UNSORTED))
        save_model(table, tmp_path / "t.npz")
        loaded = load_model(tmp_path / "t.npz")
        queries = list(UNSORTED) + ["abcdefgh1", "abcdefg", "", "a", "zeta\n", "𝄞𝄞"]
        expected = [UNSORTED.index(q) if q in UNSORTED else -1 for q in queries]
        for t in (table, loaded):
            rows = t.lookup(queries)
            assert [-1 if r < 0 else UNSORTED.index(t.tokens[r]) for r in rows.tolist()] == expected
            assert same_bits(t.matrix[rows[: len(UNSORTED)]], matrix)
        docs = [list(UNSORTED[::-1]), ["abcdefgh", "nope", "abcdefgh", "𝄞"], [], ["a\x00b"]]
        assert same_bits(embed_documents(docs, loaded)[0], embed_documents(docs, table)[0])
        assert loaded.tokens == table.tokens

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"b\na", "ascending code-point order"),
            (b"abcdefgh2\nabcdefgh10", "ascending code-point order"),
            (b"a\na", "distinct"),
            (b"abcdefgh10\nabcdefgh10", "distinct"),
            (b"a\n\xff", "not UTF-8"),
            (b"a\n\nb", "non-empty"),
        ],
        ids=["out-of-order", "out-of-order-past-8-bytes", "duplicate", "duplicate-past-8-bytes", "not-utf8", "empty"],
    )
    def test_damaged_token_list_refused(self, data, message, rng, tmp_path, capsys):
        path = tmp_path / "wv.npz"
        pipe = fitted_pipeline("word-vectors", ClassifierSpec(kind="dt"), rng)
        words = data.count(b"\n") + 1
        pipe.embeddings = EmbeddingTable(tuple(f"w{i}" for i in range(words)), np.zeros((words, 4)))
        save_model(pipe, path)
        header, arrays = read_model(path)
        member = header["root"]["fields"]["embeddings"]["fields"]["tokens"]["member"]
        arrays[member] = np.frombuffer(data, dtype=np.uint8)
        write_model(path, header["root"], arrays)
        where = re.escape(f"{path}: member {member}: ") + ".*" + re.escape(message)
        with pytest.raises(FormatError, match=where):
            load_model(path)
        assert_predict_refuses(path, f"member {member}: ", message, tmp_path, capsys)


def same_tree(restored, model) -> bool:
    """Every node array (and a forest's sizes) of equal dtype, shape and bytes, and read-only after a load."""
    names = serialize.TREE_ARRAYS + (("sizes",) if isinstance(model, RandomForest) else ())
    for name in names:
        a, b = getattr(restored, name), getattr(model, name)
        if not (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes() and not a.flags.writeable):
            return False
    return True


class TestTreeLayout:
    """A tree stores its node-kind bits, its internal nodes' feature, threshold and right, and packed leaf values."""

    @given(
        kind=st.sampled_from(["dt", "rf"]),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 40),
        columns=st.integers(1, 5),
        labels=st.integers(1, 11),
        levels=st.sampled_from([2, 5, None]),
    )
    def test_fitted_trees_round_trip_bit_for_bit(self, kind, seed, rows, columns, labels, levels, tmp_path_factory):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, columns))
        if levels:  # ties between rows, and -0.0 among the values
            x = np.round(x * levels) / levels
        y = rng.integers(0, 2, size=(rows, labels))
        hyperparameters = {"n_estimators": 4} if kind == "rf" else {}
        model = fit(ClassifierSpec(kind=kind, hyperparameters=hyperparameters, seed=seed % 1000), x, y)
        path = tmp_path_factory.mktemp("tree") / "m.npz"
        save_model(model, path)
        restored = load_model(path)
        assert same_tree(restored, model)
        np.testing.assert_array_equal(restored.predict(x), model.predict(x))
        internal = int((model.feature >= 0).sum())
        stored = {node["member"]: name for name, node in read_model(path)[0]["root"]["fields"].items() if isinstance(node, dict) and "member" in node}
        arrays = read_model(path)[1]
        sizes = {name: arrays[member].shape for member, name in stored.items()}
        assert sizes["feature"] == sizes["threshold"] == sizes["right"] == (internal,)
        assert sizes["node_kinds"] == (-(-model.feature.size // 8),)
        assert sizes["leaf_values"] == (model.feature.size - internal, -(-labels // 8))


def first_leaf_marked_internal(kinds, fields, arrays):
    bits = np.unpackbits(kinds)
    bits[np.flatnonzero(bits == 0)[0]] = 1
    return np.packbits(bits)


def set_last_pad_bit(kinds, fields, arrays):
    kinds = kinds.copy()
    kinds[-1] |= 1  # a tree has an odd node count: the last bit is a pad bit
    return kinds


def first_right(value):
    """A change setting the root's right child to ``value(node count)``."""

    def change(right, fields, arrays):
        right = right.copy()
        right[0] = value(2 * right.size + 1)
        return right

    return change


def tree_change(field, change):
    """A mutation of the stored dt of a pipeline: its member ``field`` replaced by ``change(member, fields, arrays)``."""

    def mutate(fields, arrays):
        node = fields[field]
        arrays[node["member"]] = change(arrays[node["member"]], fields, arrays)
        return node["member"]

    return mutate


class TestDamagedTrees:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (tree_change("node_kinds", lambda k, f, a: np.append(k, 0).astype(np.uint8)), "node-kind bits hold"),
            (tree_change("node_kinds", set_last_pad_bit), "node-kind bits have nonzero pad bits"),
            (tree_change("node_kinds", first_leaf_marked_internal), "internal nodes, not the"),
            (tree_change("feature", lambda v, f, a: v + f["input_dim"]), "tree feature outside [0, "),
            (tree_change("feature", lambda v, f, a: v - v.max() - 1), "tree feature outside [0, "),
            (tree_change("feature", lambda v, f, a: v.astype(np.int32)), "tree feature must be 1-D int64"),
            (tree_change("right", first_right(lambda n: 1)), "right child outside (node + 1, end of its tree)"),
            (tree_change("right", first_right(lambda n: n)), "right child outside (node + 1, end of its tree)"),
            (tree_change("right", lambda v, f, a: v[1:]), "tree right holds"),
            (tree_change("threshold", lambda v, f, a: v[1:]), "tree threshold holds"),
            (tree_change("leaf_values", lambda v, f, a: v[1:]), "tree leaf values must be"),
            (tree_change("leaf_values", lambda v, f, a: v | 1), "tree leaf values must be"),
        ],
        ids=[
            "bit-count", "pad-bits", "internal-count", "feature-past-input", "feature-negative", "feature-dtype",
            "right-is-left", "right-past-end", "right-count", "threshold-count", "leaf-count", "leaf-pad-bits",
        ],
    )
    def test_damaged_tree_refused(self, mutate, message, rng, tmp_path, capsys):
        path = tmp_path / "m.npz"
        pipe = fitted_pipeline("tfidf", ClassifierSpec(kind="dt"), rng)
        assert (pipe.classifier.feature >= 0).any()
        save_model(pipe, path)
        header, arrays = read_model(path)
        member = mutate(header["root"]["fields"]["classifier"]["fields"], arrays)
        write_model(path, header["root"], arrays)
        where = re.escape(f"{path}: member {member}: ") + ".*" + re.escape(message)
        with pytest.raises(FormatError, match=where):
            load_model(path)
        assert_predict_refuses(path, f"member {member}: ", message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "change, field, named, message",
        [
            (lambda f, a, sizes: sizes - sizes, "sizes", "sizes", "positive node counts"),
            (lambda f, a, sizes: sizes.astype(np.int32), "sizes", "sizes", "positive node counts"),
            # the node count of the sizes is not that of the node-kind bits
            (lambda f, a, sizes: sizes[:-1], "sizes", "node_kinds", "node-kind bits hold"),
            (None, "right", "right", "right child outside (node + 1, end of its tree)"),
        ],
        ids=["zero-size", "sizes-dtype", "fewer-trees", "right-into-next-tree"],
    )
    def test_damaged_forest_refused(self, change, field, named, message, rng, tmp_path, capsys):
        pipe = fitted_pipeline("tfidf", ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 3}), rng)
        model = pipe.classifier
        assert (model.feature[: model.sizes[0]] >= 0).any()
        path = tmp_path / "rf.npz"
        save_model(pipe, path)
        header, arrays = read_model(path)
        fields = header["root"]["fields"]["classifier"]["fields"]
        member = fields[field]["member"]
        if change is None:  # the first internal node of tree 0 points its right child at the root of tree 1
            right = arrays[member].copy()
            right[0] = model.sizes[0]
            arrays[member] = right
        else:
            arrays[member] = change(fields, arrays, arrays[member])
        write_model(path, header["root"], arrays)
        member = fields[named]["member"]
        with pytest.raises(FormatError, match=re.escape(f"{path}: member {member}: ") + ".*" + re.escape(message)):
            load_model(path)
        assert_predict_refuses(path, f"member {member}: ", message, tmp_path, capsys)


def saved_classifier_fields(path, spec, rng) -> tuple[dict, dict, list]:
    """Save a tf-idf pipeline with a ``spec`` classifier at ``path``: its header, the classifier's fields and the arrays."""
    save_model(fitted_pipeline("tfidf", spec, rng), path)
    header, arrays = read_model(path)
    return header, header["root"]["fields"]["classifier"]["fields"], arrays


def saved_knn_fields(path, rng) -> tuple[dict, dict, list]:
    """Save a tf-idf pipeline with a k = 3 kNN at ``path``: its header, the kNN's fields and the arrays."""
    header, fields, arrays = saved_classifier_fields(path, ClassifierSpec(kind="knn", hyperparameters={"k": 3}), rng)
    assert arrays[fields["x"]["member"]].shape == (6, 6) and arrays[fields["y"]["member"]].shape == (6, 6)
    return header, fields, arrays


def seven_for_a_one(y):
    y = y.copy()
    y.flat[np.flatnonzero(y == 1)[0]] = 7
    return y


class TestDamagedNeighbors:
    """A kNN's stored points and its k are checked at load; once each of these loaded, or failed as a traceback."""

    @pytest.mark.parametrize(
        "field, change, message",
        [
            ("y", lambda y: y[:-3], "knn y must be 2-D int64 of shape (6, 6)"),  # loaded and predicted
            # predicted wrong labels
            ("y", seven_for_a_one, "knn y must be 2-D int64 of shape (6, 6) holding only 0 and 1"),
            ("y", lambda y: y[:, :3], "knn y must be 2-D int64 of shape (6, 6)"),
            ("y", lambda y: y.astype(np.int32), "knn y must be 2-D int64"),
            ("x", lambda x: x[:, :-2], "knn x must be 2-D float64 of shape (n >= 1, 6)"),
            ("x", lambda x: x.ravel(), "knn x must be 2-D float64"),
            ("x", lambda x: x[:0], "knn x must be 2-D float64 of shape (n >= 1, 6)"),
            ("x", lambda x: x.astype(np.float32), "knn x must be 2-D float64"),
        ],
        ids=["y-rows", "y-seven", "y-labels", "y-dtype", "x-columns", "x-1d", "x-empty", "x-dtype"],
    )
    def test_points_that_do_not_fit_refused(self, field, change, message, rng, tmp_path, capsys):
        path = tmp_path / "knn.npz"
        header, fields, arrays = saved_knn_fields(path, rng)
        member = fields[field]["member"]
        arrays[member] = change(arrays[member])
        write_model(path, header["root"], arrays)
        with pytest.raises(FormatError, match=re.escape(f"{path}: member {member}: {message}")):
            load_model(path)
        assert_predict_refuses(path, f"member {member}: ", message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "k, message",
        [
            (0, "k must be >= 1, got 0"),  # predicted all zeros
            (-2, "k must be >= 1, got -2"),  # predicted all ones: n - 2 neighbours
            ("x", "k must be an integer, got 'x'"),
            (2.5, "k must be an integer, got 2.5"),
            (True, "k must be an integer, got True"),
            (None, "k must be an integer, got None"),
        ],
        ids=["zero", "negative", "string", "float", "bool", "null"],
    )
    def test_k_that_is_not_a_positive_int_refused(self, k, message, rng, tmp_path, capsys):
        path = tmp_path / "knn.npz"
        header, fields, arrays = saved_knn_fields(path, rng)
        fields["spec"]["fields"]["hyperparameters"]["items"]["k"] = k
        write_model(path, header["root"], arrays)
        with pytest.raises(FormatError, match=re.escape(f"{path}: knn spec: {message}")):
            load_model(path)
        assert_predict_refuses(path, "knn spec: ", message, tmp_path, capsys)

    def test_spec_of_another_kind_refused(self, rng, tmp_path, capsys):
        # a dt spec has no k: such a model loaded, and its predict failed as a KeyError
        path = tmp_path / "knn.npz"
        header, fields, arrays = saved_knn_fields(path, rng)
        fields["spec"]["fields"].update(kind="dt", hyperparameters={"__kind__": "dict", "items": {}})
        write_model(path, header["root"], arrays)
        with pytest.raises(FormatError, match=re.escape(f"{path}: knn spec: kind must be 'knn', got 'dt'")):
            load_model(path)
        assert_predict_refuses(path, "knn spec: ", "kind must be 'knn'", tmp_path, capsys)


class TestDamagedSpecs:
    """A stored spec must be of its learner's kind and pass its own checks.

    A spec of another learner's kind loaded and predicted; one that its own
    checks refuse escaped the load as a ConfigError naming no file.
    """

    @pytest.mark.parametrize("spec", [s for s in CLASSIFIER_SPECS if s.kind != "knn"], ids=lambda s: s.kind)
    def test_spec_of_another_learner_refused(self, spec, rng, tmp_path, capsys):
        path = tmp_path / "model.npz"
        header, fields, arrays = saved_classifier_fields(path, spec, rng)
        empty = {"hyperparameters": {"__kind__": "dict", "items": {}}, "members": {"__kind__": "tuple", "items": []}}
        fields["spec"]["fields"].update(kind="knn", **empty)  # a valid knn spec
        write_model(path, header["root"], arrays)
        message = f"kind must be {spec.kind!r}, got 'knn'"
        with pytest.raises(FormatError, match=re.escape(f"{path}: {spec.kind} spec: {message}")):
            load_model(path)
        assert_predict_refuses(path, f"{spec.kind} spec: ", message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "node, change, message",
        [
            ("ClassifierSpec", lambda f: f.update(kind="bogus"), "unknown classifier kind 'bogus'"),
            (
                "ClassifierSpec",
                lambda f: f["hyperparameters"]["items"].update(bogus=1),
                "unknown hyperparameters for dt: ['bogus']",
            ),
            ("TokenizerSpec", lambda f: f.update(kind="bogus"), "unknown tokenizer kind 'bogus'"),
        ],
        ids=["classifier-kind", "hyperparameter", "tokenizer-kind"],
    )
    def test_spec_its_own_checks_refuse_is_a_format_error(self, node, change, message, rng, tmp_path, capsys):
        path = tmp_path / "model.npz"
        header, fields, arrays = saved_classifier_fields(path, ClassifierSpec(kind="dt"), rng)
        spec = fields["spec"] if node == "ClassifierSpec" else header["root"]["fields"]["tokenizer_spec"]
        assert spec["type"] == node
        change(spec["fields"])
        write_model(path, header["root"], arrays)
        with pytest.raises(FormatError, match=re.escape(f"{path}: a {node} node: {message}")):
            load_model(path)
        assert_predict_refuses(path, f"a {node} node: ", message, tmp_path, capsys)


def entry_damage(change):
    """A damage of a model file's first member entry by ``change(entry)``."""

    def damage(header, payloads):
        change(header["members"][0])
        return pack(header, payloads)

    return damage


def patched(data: bytes, start: int, value: int, width: int) -> bytes:
    """``data`` with its ``width`` little-endian bytes at ``start`` set to ``value``."""
    return data[:start] + value.to_bytes(width, "little") + data[start + width :]


class TestModelReader:
    """``load_model``'s one-pass reader: the prefix, the header, then one inflate per member."""

    @staticmethod
    def saved_tree(rng, path):
        x, y = small_problem(rng)
        save_model(fit(ClassifierSpec(kind="dt"), x, y), path)  # member 0 is its int64 feature array, 4 its leaf values
        return path

    @pytest.mark.parametrize("kind", REPRESENTATION_KINDS)
    def test_entries_of_every_member_the_codecs_write_agree_with_numpy(self, kind, rng, tmp_path):
        arrays = [
            np.zeros(()),
            np.arange(6.0).reshape(2, 3).T,
            np.asfortranarray(np.ones((2, 3, 4))),
            np.zeros((3, 0, 2), dtype=np.uint8),
            np.array([True, False]),
            np.arange(5, dtype=np.int64),
        ]
        for spec in CLASSIFIER_SPECS:
            arrays += encoded_arrays(fitted_pipeline(kind, spec, rng))
        kinds = {(a.dtype.str, a.ndim, np.isfortran(a)) for a in arrays}
        assert {("|b1", 1, False), ("|u1", 3, False), ("<f8", 2, True), ("<i8", 1, False)} <= kinds
        path = tmp_path / "m.npz"
        save_model(arrays, path)
        header, _ = read_model(path)
        assert [node["__kind__"] for node in header["root"]["items"]] == ["array"] * len(arrays)
        for array, entry in zip(arrays, header["members"]):
            ours = {"descr": entry["dtype"], "fortran_order": entry["fortran_order"], "shape": tuple(entry["shape"])}
            assert ours == np.lib.format.header_data_from_array_1_0(array)
        restored = load_model(path)
        assert len(restored) == len(arrays)
        for array, back in zip(arrays, restored):
            assert back.dtype == array.dtype and back.shape == array.shape
            assert np.isfortran(back) == np.isfortran(array)
            np.testing.assert_array_equal(back, array)

    @given(
        dtype=st.sampled_from(sorted(serialize._DTYPES.values(), key=lambda d: d.str)),
        fortran_order=st.booleans(),
        shape=st.lists(st.integers(0, 4), max_size=3).map(tuple),
    )
    def test_any_table_dtype_order_and_shape_round_trips(self, dtype, fortran_order, shape, tmp_path_factory):
        array = np.arange(int(np.prod(shape))).astype(dtype).reshape(shape, order="F" if fortran_order else "C")
        path = tmp_path_factory.mktemp("any") / "m.npz"
        save_model({"x": array}, path)
        entry = read_model(path)[0]["members"][0]
        assert (entry["dtype"], entry["shape"], entry["fortran_order"]) == (dtype.str, list(shape), np.isfortran(array))
        restored = load_model(path)["x"]
        assert (restored.dtype, restored.shape, np.isfortran(restored)) == (dtype, shape, np.isfortran(array))
        assert restored.tobytes(order="A") == array.tobytes(order="A")

    def test_members_equal_the_reference_reader_and_are_read_only(self, rng, tmp_path):
        path = tmp_path / "wv.npz"
        pipe = saved_word_vector_model(rng, path)
        with open(path, "rb") as fh:
            root, members = serialize._read_model(fh)
        header, expected = read_model(path)
        assert root == header["root"] and len(members) == len(expected)
        for ours, theirs in zip(members, expected):
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
            assert ours.tobytes() == theirs.tobytes()
        assert not any(a.flags.writeable for a in members)
        restored = load_model(path)
        with pytest.raises(ValueError, match="read-only"):
            restored.classifier.threshold[0] = 0.0
        np.testing.assert_array_equal(restored.predict_texts(TEXTS), pipe.predict_texts(TEXTS))

    @pytest.mark.parametrize("spec", CLASSIFIER_SPECS, ids=lambda s: s.kind)
    def test_every_loaded_learner_predicts_and_refits(self, spec, rng, tmp_path):
        x, y = small_problem(rng)
        model = fit(spec, x, y)
        save_model(model, tmp_path / "m.npz")
        loaded = load_model(tmp_path / "m.npz")
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))
        x2, y2 = small_problem(rng)
        loaded.fit(x2, y2)
        np.testing.assert_array_equal(loaded.predict(x2), fit(spec, x2, y2).predict(x2))

    @pytest.mark.parametrize(
        "damage, where, message",
        [
            (lambda h, p: patched(pack(h, p), 12, 1 << 20, 8), "header", "its 1048576 bytes run past the end"),
            (lambda h, p: patched(pack(h, p), 28, 0, 4), "header", "bad CRC-32"),
            (lambda h, p: pack(b"{not json", p), "header", "Expecting property name"),
            (entry_damage(lambda e: e.update(dtype="<U1")), "member 0", "dtype '<U1' is not a bool, integer or float"),
            (entry_damage(lambda e: e.update(dtype="|V8")), "member 0", "dtype '|V8' is not a bool, integer or float"),
            (entry_damage(lambda e: e.update(shape=[-1])), "member 0", "shape [-1] is not a list of non-negative ints"),
            (entry_damage(lambda e: e.update(shape=[2.0])), "member 0", "shape [2.0] is not a list of"),
            (entry_damage(lambda e: e.update(size=e["size"] + 8)), "member 0", "is not that of shape"),
            (lambda h, p: pack(h, p)[:-1], "member 4", "run past the end of the file"),
            (lambda h, p: pack(h, p) + b"\0", "file", "bytes after the last member"),
            (entry_damage(lambda e: e.update(crc=e["crc"] ^ 1)), "member 0", "bad CRC-32"),
            # the inflate reserves no more than 1032 bytes per payload byte, whatever the entry says
            (entry_damage(lambda e: e.update(shape=[1 << 37], size=1 << 40)), "member 0", f"bytes, not {1 << 40}"),
        ],
        ids=[
            "header-past-end", "header-crc", "header-not-json", "unicode-dtype", "void-dtype", "negative-shape",
            "float-shape", "size-not-shape", "payload-past-end", "trailing-bytes", "member-crc", "size-past-inflate",
        ],
    )
    def test_damaged_file_names_file_and_member(self, damage, where, message, rng, tmp_path):
        path = self.saved_tree(rng, tmp_path / "dt.npz")
        path.write_bytes(damage(*unpacked(path)))
        pattern = re.escape(f"{path}: damaged model {where}: ") + ".*" + re.escape(message)
        with pytest.raises(FormatError, match=pattern):
            load_model(path)

    @pytest.mark.parametrize(
        "write",
        [
            lambda fh: None,
            lambda fh: np.save(fh, np.arange(3)),
            lambda fh: np.savez_compressed(fh, data=np.arange(3)),
            lambda fh: fh.write(b"\x93POLYEMO" + bytes(24)),
        ],
        ids=["empty", "plain-npy", "zip", "other-magic"],
    )
    def test_file_of_another_format_is_not_a_model(self, write, tmp_path):
        # model files of format 1 to 6 were zip archives
        path = tmp_path / "m.npz"
        with open(path, "wb") as fh:
            write(fh)
        with pytest.raises(FormatError, match=re.escape(f"{path}: not a model file")):
            load_model(path)

    def test_unreadable_path_cannot_be_read(self, tmp_path):
        with pytest.raises(FormatError, match=re.escape(f"cannot read model {tmp_path}")):
            load_model(tmp_path)


# the JSON field names of every registered type, in file order
EXPECTED_LAYOUT = {
    "ClassifierSpec": ["kind", "hyperparameters", "seed", "members"],
    "DecisionTree": ["spec", "input_dim", "n_labels", "feature", "threshold", "right", "node_kinds", "leaf_values"],
    "DecimalForm": ["decimals", "shape", "byte_planes", "bit_planes", "negative_zeros"],
    "EmbeddingTable": ["language", "source", "tokens", "matrix", "form"],
    "KNearestNeighbors": ["spec", "x", "y", "input_dim", "n_labels"],
    "LinearSvm": ["spec", "w", "b", "input_dim", "n_labels"],
    "Mlp": ["spec", "weights", "biases", "input_dim", "n_labels"],
    "PcaModel": ["mean", "components", "explained_variance", "explained_variance_ratio", "n_samples"],
    "PipelineModel": [
        "language", "representation", "representation_kind", "tokenizer_spec", "tokenizer_vocab",
        "tfidf", "embeddings", "normalize", "pca", "classifier", "emotions",
    ],
    "RandomForest": [
        "spec", "input_dim", "n_labels", "sizes", "feature", "threshold", "right", "node_kinds", "leaf_values",
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
            object_layouts(read_model(path)[0]["root"], layouts)
        assert layouts == EXPECTED_LAYOUT
        assert {name: list(codec[2]) for name, codec in serialize._REGISTRY.items()} == EXPECTED_LAYOUT
