"""The generated benchmark corpus: separable clusters, stable splits."""

import numpy as np
import pytest

from polyemo.corpus import EMOTIONS, load_split
from polyemo.dense_features import load_word_vectors
from polyemo.synthetic import (
    build_corpus,
    synthetic_vocabulary,
    write_corpus,
    write_word_vectors,
)


class TestBuildCorpus:
    def test_split_sizes(self):
        splits = build_corpus(seed=0, n_documents=600)
        assert {r: len(s) for r, s in splits.items()} == {
            "train": 420,
            "dev": 60,
            "test": 120,
        }

    def test_partition_is_disjoint_and_complete(self):
        splits = build_corpus(seed=1, n_documents=120)
        ids = [d.id for s in splits.values() for d in s.documents]
        assert len(ids) == 120
        assert len(set(ids)) == 120

    def test_deterministic_per_seed(self):
        assert build_corpus(seed=5, n_documents=60) == build_corpus(seed=5, n_documents=60)
        assert build_corpus(seed=5, n_documents=60) != build_corpus(seed=6, n_documents=60)

    def test_words_match_labels(self):
        """Every emotion word in a document belongs to an active label."""
        vocab = synthetic_vocabulary()
        word_owner = {w: emo for emo in EMOTIONS for w in vocab[emo]}
        splits = build_corpus(seed=0, n_documents=120)
        for split in splits.values():
            for doc in split.documents:
                active = {EMOTIONS[j] for j, v in enumerate(doc.labels) if v}
                assert active  # at least the primary label
                for word in doc.text.split():
                    owner = word_owner.get(word)
                    if owner is not None:
                        assert owner in active

    def test_every_label_has_positives(self):
        splits = build_corpus(seed=0, n_documents=120)
        y = np.vstack([s.label_matrix() for s in splits.values()])
        assert np.all(y.sum(axis=0) >= 1)
        # primaries cycle, so each label has roughly n/6 positives at minimum
        assert np.all(y.sum(axis=0) >= 120 // len(EMOTIONS))

    def test_write_corpus_round_trips(self, tmp_path):
        lang_dir = write_corpus(tmp_path, seed=0, n_documents=60, language="syn")
        assert lang_dir == tmp_path / "syn"
        splits = build_corpus(seed=0, n_documents=60, language="syn")
        for role in ("train", "dev", "test"):
            assert load_split(lang_dir / f"{role}.csv", role) == splits[role]


class TestWordVectors:
    def test_file_loads_with_expected_contents(self, tmp_path):
        path = write_word_vectors(tmp_path / "syn.vec", seed=0, dimension=12)
        table = load_word_vectors(path)
        vocab = synthetic_vocabulary()
        n_words = len(EMOTIONS) * len(vocab["anger"]) + len(vocab["filler"])
        assert table.dimension == 12
        assert len(table) == n_words

    def test_emotion_words_point_along_their_axis(self, tmp_path):
        table = load_word_vectors(write_word_vectors(tmp_path / "syn.vec", seed=0))
        vocab = synthetic_vocabulary()
        for j, emo in enumerate(EMOTIONS):
            for word in vocab[emo]:
                assert int(np.argmax(np.abs(table.matrix[table.lookup([word])[0]]))) == j

    def test_filler_words_carry_no_signal(self, tmp_path):
        table = load_word_vectors(write_word_vectors(tmp_path / "syn.vec", seed=0))
        for word in synthetic_vocabulary()["filler"]:
            assert np.linalg.norm(table.matrix[table.lookup([word])[0]]) < 1.0

    def test_dimension_floor(self, tmp_path):
        with pytest.raises(ValueError):
            write_word_vectors(tmp_path / "v.vec", dimension=3)
