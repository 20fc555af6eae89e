"""Bag-of-words counts and TF-IDF weighting against brute-force oracles."""

import math
from itertools import chain, repeat

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from polyemo.errors import DataError, FormatError
from polyemo.reduce import normalize_rows
from polyemo.sparse_features import (
    SparseRows,
    TfidfModel,
    fit_bow,
    fit_tfidf,
    load_vocabulary_stats,
    normalize_rows_sparse,
    save_vocabulary,
    transform_bow,
    transform_tfidf,
)
from polyemo.tokenize import tokens_of

from conftest import sparse_rows

token_corpus = st.lists(
    st.lists(st.sampled_from("abcdefgh"), max_size=12),
    min_size=1,
    max_size=10,
).filter(lambda docs: any(doc for doc in docs))


def oracle_idf(n_docs, df):
    """Independent restatement of the weighting: ln((1+N)/(1+DF)) + 1."""
    return math.log1p(n_docs) - math.log1p(df) + 1.0


def random_corpus(rng, max_docs=20, max_vocab=50):
    vocab = [f"w{i}" for i in range(int(rng.integers(1, max_vocab + 1)))]
    n_docs = int(rng.integers(1, max_docs + 1))
    docs = []
    for _ in range(n_docs):
        length = int(rng.integers(0, 30))
        docs.append([vocab[int(rng.integers(0, len(vocab)))] for _ in range(length)])
    if not any(docs):
        docs[0] = [vocab[0]]
    return docs


class TestFitBow:
    def test_document_frequency(self):
        vocab = fit_bow([["a", "b"], ["b", "c"]])
        assert vocab.corpus_size == 2
        assert vocab.document_frequency == {"a": 1, "b": 2, "c": 1}

    def test_repeats_count_once_per_document(self):
        vocab = fit_bow([["x", "x", "x"]])
        assert vocab.document_frequency["x"] == 1

    def test_df_reaches_corpus_size(self):
        vocab = fit_bow([["a"], ["a"], ["a"]])
        assert vocab.document_frequency["a"] == vocab.corpus_size == 3

    def test_columns_in_sorted_token_order(self):
        vocab = fit_bow([["c", "a", "b"]])
        assert vocab.tokens == ["a", "b", "c"]
        assert vocab.index == {"a": 0, "b": 1, "c": 2}

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            fit_bow([])

    def test_all_empty_documents(self):
        with pytest.raises(DataError):
            fit_bow([[], []])

    def test_deterministic(self, rng):
        docs = random_corpus(rng)
        a, b = fit_bow(docs), fit_bow(docs)
        assert a == b


class TestTransformBow:
    def test_counts(self):
        vocab = fit_bow([["a", "b"]])
        m = transform_bow([["b", "b", "a"]], vocab)
        assert m.shape == (1, 2)
        assert m.toarray().tolist() == [[1.0, 2.0]]

    def test_oov_dropped(self):
        vocab = fit_bow([["a"]])
        m = transform_bow([["z", "z"]], vocab)
        assert m.nnz == 0

    def test_empty_document_row(self):
        vocab = fit_bow([["a"]])
        m = transform_bow([[], ["a"]], vocab)
        assert np.diff(m.indptr).tolist() == [0, 1]

    @given(docs=token_corpus)
    def test_matrix_invariants(self, docs):
        vocab = fit_bow(docs)
        m = transform_bow(docs, vocab)
        for start, end in zip(m.indptr[:-1], m.indptr[1:]):
            assert np.all(np.diff(m.indices[start:end]) > 0)  # sorted, no duplicates
        assert np.all(m.data > 0)  # no explicit zeros
        # row sums equal in-vocabulary token counts
        for i, doc in enumerate(docs):
            assert m.toarray()[i].sum() == sum(1 for t in doc if t in vocab.index)


def reference_transform_bow(docs, vocab):
    """The per-document dict loop that array-built counts replaced, kept as the reference."""
    indptr, indices, data = [0], [], []
    for doc in docs:
        counts = {}
        for token in doc:
            j = vocab.index.get(token)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        for j in sorted(counts):
            indices.append(j)
            data.append(float(counts[j]))
        indptr.append(len(indices))
    return (
        np.array(data),
        np.array(indices, dtype=np.int32),
        np.array(indptr, dtype=np.int32),
        (len(indptr) - 1, len(vocab)),
    )


class TestArrayCountsMatchLoop:
    # documents to transform draw from a wider alphabet than the fitted
    # vocabulary, so OOV tokens, all-OOV documents and empty ones all occur
    @given(
        fitted=token_corpus,
        docs=st.lists(st.lists(st.sampled_from("abcdefghxyz"), max_size=12), max_size=10),
    )
    def test_same_csr_arrays(self, fitted, docs):
        vocab = fit_bow(fitted)
        m = transform_bow(docs, vocab)
        data, indices, indptr, shape = reference_transform_bow(docs, vocab)
        assert m.shape == shape
        for got, want in ((m.data, data), (m.indices, indices), (m.indptr, indptr)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_empty_document_list(self):
        m = transform_bow([], fit_bow([["a", "b"]]))
        assert m.shape == (0, 2)
        assert m.data.dtype == np.float64 and m.indices.dtype == np.int32
        assert m.indptr.tolist() == [0] and m.indptr.dtype == np.int32


class TestIdf:
    def test_everywhere_token_weighs_one(self):
        model = fit_tfidf([["a", "b"], ["a"], ["a", "c"]])
        j = model.vocabulary.index["a"]
        assert model.idf[j] == pytest.approx(1.0, abs=1e-15)

    def test_rare_token(self):
        model = fit_tfidf([["a", "b"], ["a"], ["a", "c"]])
        j = model.vocabulary.index["b"]
        assert model.idf[j] == pytest.approx(math.log(2.0) + 1.0, abs=1e-12)

    def test_single_document_corpus(self):
        model = fit_tfidf([["only"]])
        assert model.idf[0] == pytest.approx(1.0, abs=1e-15)

    def test_lower_bound_and_equality_condition(self, rng):
        for _ in range(20):
            docs = random_corpus(rng)
            model = fit_tfidf(docs)
            assert np.all(model.idf >= 1.0 - 1e-15)
            vocab = model.vocabulary
            for token, j in vocab.index.items():
                everywhere = vocab.document_frequency[token] == vocab.corpus_size
                assert (abs(model.idf[j] - 1.0) < 1e-12) == everywhere

    def test_df_monotonicity(self, rng):
        """Rarer tokens always weigh strictly more."""
        for _ in range(20):
            docs = random_corpus(rng)
            model = fit_tfidf(docs)
            vocab = model.vocabulary
            for t1, j1 in vocab.index.items():
                for t2, j2 in vocab.index.items():
                    d1 = vocab.document_frequency[t1]
                    d2 = vocab.document_frequency[t2]
                    if d1 < d2:
                        assert model.idf[j1] > model.idf[j2]

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            docs = random_corpus(rng)
            model = fit_tfidf(docs)
            vocab = model.vocabulary
            for token, j in vocab.index.items():
                want = oracle_idf(vocab.corpus_size, vocab.document_frequency[token])
                assert abs(model.idf[j] - want) < 1e-12


class TestTransformTfidf:
    def test_single_token_document_normalizes_to_one(self):
        model = fit_tfidf([["a"], ["b"]])
        m = transform_tfidf([["a"]], model)
        assert m.toarray()[0, model.vocabulary.index["a"]] == pytest.approx(1.0)

    def test_hand_computed_weights(self):
        # corpus: {a b}, {b}; doc [a b b]: tf a=1 b=2, idf a=ln(3/2)+1 b=1
        model = fit_tfidf([["a", "b"], ["b"]], row_normalize=False)
        m = transform_tfidf([["a", "b", "b"]], model).toarray()[0]
        ia, ib = model.vocabulary.index["a"], model.vocabulary.index["b"]
        assert m[ia] == pytest.approx(math.log(1.5) + 1.0, abs=1e-12)
        assert m[ib] == pytest.approx(2.0, abs=1e-12)

    def test_normalized_variant_scales_raw(self):
        raw_model = fit_tfidf([["a", "b"], ["b"]], row_normalize=False)
        norm_model = TfidfModel(raw_model.vocabulary, raw_model.idf, row_normalize=True)
        doc = [["a", "b", "b"]]
        raw = transform_tfidf(doc, raw_model).toarray()[0]
        norm = transform_tfidf(doc, norm_model).toarray()[0]
        np.testing.assert_allclose(norm, raw / np.linalg.norm(raw), atol=1e-12)

    def test_all_oov_row_stays_zero(self):
        model = fit_tfidf([["a"]])
        m = transform_tfidf([["z"]], model)
        assert m.nnz == 0

    @given(docs=token_corpus)
    def test_rows_unit_norm(self, docs):
        model = fit_tfidf(docs)
        m = transform_tfidf(docs, model)
        norms = np.linalg.norm(m.toarray(), axis=1)
        for i, doc in enumerate(docs):
            if any(t in model.vocabulary.index for t in doc):
                assert abs(norms[i] - 1.0) < 1e-9
            else:
                assert norms[i] == 0.0

    def test_matches_dense_oracle(self, rng):
        """Full pipeline against a dense tf * idf reimplementation."""
        for _ in range(25):
            docs = random_corpus(rng, max_docs=8, max_vocab=10)
            model = fit_tfidf(docs, row_normalize=False)
            vocab = model.vocabulary
            got = transform_tfidf(docs, model).toarray()
            want = np.zeros_like(got)
            for i, doc in enumerate(docs):
                for token in doc:
                    if token in vocab.index:
                        j = vocab.index[token]
                        want[i, j] += oracle_idf(vocab.corpus_size, vocab.document_frequency[token])
            np.testing.assert_allclose(got, want, atol=1e-10)


class TestNormalizeRowsSparse:
    def test_zero_row_untouched(self):
        m = sparse_rows([[0.0, 0.0], [3.0, 4.0]])
        out = normalize_rows_sparse(m).toarray()
        assert out[0].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(out[1], [0.6, 0.8], atol=1e-12)

    def test_input_not_mutated(self):
        m = sparse_rows([[3.0, 4.0]])
        normalize_rows_sparse(m)
        assert m.toarray().tolist() == [[3.0, 4.0]]


# frozen copies of the scipy.sparse code that SparseRows replaced; every value must keep its bits


def scipy_transform_bow(docs, vocab) -> sp.csr_matrix:
    seqs = [tokens_of(doc) for doc in docs]
    n_rows, n_cols = len(seqs), len(vocab)
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=n_rows)
    cols = np.fromiter(
        map(vocab.index.get, chain.from_iterable(seqs), repeat(-1)),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    known = cols >= 0
    keys, counts = np.unique(rows[known] * n_cols + cols[known], return_counts=True)
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n_cols, minlength=n_rows), out=indptr[1:])
    return sp.csr_matrix(
        (counts.astype(np.float64), (keys % n_cols).astype(np.int32), indptr),
        shape=(n_rows, n_cols),
    )


def scipy_normalize_rows(m: sp.csr_matrix) -> sp.csr_matrix:
    m = m.copy()
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    scale = np.ones_like(norms)
    nonzero = norms > 0
    scale[nonzero] = 1.0 / norms[nonzero]
    row_lengths = np.diff(m.indptr)
    m.data *= np.repeat(scale, row_lengths)
    return m


def scipy_transform_tfidf(docs, model) -> sp.csr_matrix:
    m = scipy_transform_bow(docs, model.vocabulary)
    m.data *= model.idf[m.indices]
    if model.row_normalize:
        m = scipy_normalize_rows(m)
    return m


def assert_same_rows(got: SparseRows, want: sp.csr_matrix):
    assert isinstance(got, SparseRows) and got.shape == want.shape and got.nnz == want.nnz
    for ours, theirs in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
    dense = got.toarray()
    assert dense.dtype == np.float64 and dense.flags.c_contiguous
    assert dense.tobytes() == np.asarray(want.todense()).tobytes()
    assert np.asarray(got).tobytes() == dense.tobytes()


# rows of up to 26 distinct columns, so the pairwise sums of np.add.reduceat (8 accumulators) are reached
WORDS = st.sampled_from("abcdefghijklmnopqrstuvwxyz")


class TestMatchesScipyReference:
    # the transformed documents add out-of-vocabulary tokens, repeats, empty and all-OOV documents
    @given(
        fitted=st.lists(st.lists(WORDS, max_size=40), min_size=1, max_size=12).filter(lambda docs: any(docs)),
        docs=st.lists(st.lists(st.one_of(WORDS, st.sampled_from(["0", "1", "é"])), max_size=60), max_size=12),
        row_normalize=st.booleans(),
    )
    def test_bit_identical(self, fitted, docs, row_normalize):
        model = fit_tfidf(fitted, row_normalize=row_normalize)
        docs = docs + [[], ["0", "1"], ["a"] * 30]
        assert_same_rows(transform_bow(docs, model.vocabulary), scipy_transform_bow(docs, model.vocabulary))
        got, want = transform_tfidf(docs, model), scipy_transform_tfidf(docs, model)
        assert_same_rows(got, want)
        # the runner's row normalization after tf-idf, and its bag of words: unit idf, no normalization
        assert_same_rows(normalize_rows(got), scipy_normalize_rows(want))
        bow = TfidfModel(model.vocabulary, np.ones(len(model.vocabulary)), row_normalize=False)
        want = scipy_normalize_rows(scipy_transform_tfidf(docs, bow))
        assert_same_rows(normalize_rows(transform_tfidf(docs, bow)), want)


class TestVocabularyFile:
    def test_round_trip(self, tmp_path):
        vocab = fit_bow([["b", "a"], ["b"]])
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        assert load_vocabulary_stats(path) == [("a", 1), ("b", 2)]

    @pytest.mark.parametrize("line", ["c 3", "c\tthree", "c\t3\t4"])
    def test_malformed_line_named(self, tmp_path, line):
        path = tmp_path / "vocab.tsv"
        path.write_text(f"a\t1\n\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"vocab\.tsv: line 3: expected 'token<TAB>document frequency'"):
            load_vocabulary_stats(path)

    def test_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(b"a\t1\n\xff\xfe\n")
        with pytest.raises(FormatError, match=r"vocab\.tsv: line 2: not UTF-8"):
            load_vocabulary_stats(path)

    def test_missing_file_names_its_path(self, tmp_path):
        path = tmp_path / "nope.tsv"
        with pytest.raises(DataError, match=f"cannot read {path}: "):
            load_vocabulary_stats(path)
