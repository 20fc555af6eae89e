"""Bag-of-words and TF-IDF document representations.

Matrices are scipy CSR with sorted column indices, no duplicate entries and
no explicit zeros. The IDF weight of a token w over a corpus of N documents
with document frequency DF(w) is

    idf(w) = ln((1 + N) / (1 + DF(w))) + 1

so idf is always >= 1, with equality exactly when the token appears in every
document. TF is the raw in-document count. TF-IDF rows are L2-normalized by
default; all-zero rows are left untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .atomic import atomic_open
from .errors import DataError, FormatError, open_input


def _tokens_of(doc) -> tuple[str, ...]:
    return doc.tokens if hasattr(doc, "tokens") else tuple(doc)


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-column mapping with document frequencies.

    Column indices are assigned in sorted token order, so fitting the same
    corpus twice yields an identical vocabulary.
    """

    index: dict[str, int]
    document_frequency: dict[str, int]
    corpus_size: int

    def __len__(self) -> int:
        return len(self.index)

    @property
    def tokens(self) -> list[str]:
        out = [""] * len(self.index)
        for token, i in self.index.items():
            out[i] = token
        return out


@dataclass(frozen=True)
class TfidfModel:
    vocabulary: Vocabulary
    idf: np.ndarray
    row_normalize: bool = True


def fit_bow(corpus) -> Vocabulary:
    """Build a vocabulary over every token that appears at least once.

    DF counts the number of documents containing a token, not occurrences.
    """
    df: dict[str, int] = {}
    n_docs = 0
    for doc in corpus:
        n_docs += 1
        for token in set(_tokens_of(doc)):
            df[token] = df.get(token, 0) + 1
    if n_docs == 0:
        raise DataError("cannot fit a vocabulary on an empty corpus")
    if not df:
        raise DataError("all documents are empty; vocabulary would be empty")
    index = {token: i for i, token in enumerate(sorted(df))}
    return Vocabulary(index=index, document_frequency=df, corpus_size=n_docs)


def transform_bow(docs, vocab: Vocabulary) -> sp.csr_matrix:
    """Raw count matrix; out-of-vocabulary tokens are dropped."""
    seqs = [_tokens_of(doc) for doc in docs]
    n_rows, n_cols = len(seqs), len(vocab)
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=n_rows)
    cols = np.fromiter(
        map(vocab.index.get, chain.from_iterable(seqs), repeat(-1)),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    known = cols >= 0
    # row-major cell keys: unique sorts them by row, then by column
    keys, counts = np.unique(rows[known] * n_cols + cols[known], return_counts=True)
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n_cols, minlength=n_rows), out=indptr[1:])
    return sp.csr_matrix(
        (counts.astype(np.float64), (keys % n_cols).astype(np.int32), indptr),
        shape=(n_rows, n_cols),
    )


def compute_idf(vocab: Vocabulary) -> np.ndarray:
    n = vocab.corpus_size
    idf = np.empty(len(vocab))
    for token, j in vocab.index.items():
        idf[j] = math.log((1 + n) / (1 + vocab.document_frequency[token])) + 1.0
    return idf


def fit_tfidf(corpus, row_normalize: bool = True) -> TfidfModel:
    vocab = fit_bow(corpus)
    return TfidfModel(vocabulary=vocab, idf=compute_idf(vocab), row_normalize=row_normalize)


def transform_tfidf(docs, model: TfidfModel) -> sp.csr_matrix:
    m = transform_bow(docs, model.vocabulary)
    m.data *= model.idf[m.indices]
    if model.row_normalize:
        m = normalize_rows_sparse(m)
    return m


def normalize_rows_sparse(m: sp.csr_matrix) -> sp.csr_matrix:
    """Scale each nonzero row of a CSR matrix to unit L2 norm."""
    m = m.copy()
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    scale = np.ones_like(norms)
    nonzero = norms > 0
    scale[nonzero] = 1.0 / norms[nonzero]
    row_lengths = np.diff(m.indptr)
    m.data *= np.repeat(scale, row_lengths)
    return m


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Persist as two-column text (token, DF) in column order, for inspection."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for token in vocab.tokens:
            fh.write(f"{token}\t{vocab.document_frequency[token]}\n")


def load_vocabulary_stats(path: str | Path) -> list[tuple[str, int]]:
    """Read back (token, DF) pairs written by save_vocabulary.

    A line other than ``token<TAB>integer`` is a FormatError naming it.
    """
    out = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                token, df = line.split("\t")
                out.append((token, int(df)))
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: expected 'token<TAB>document frequency', got {line!r}"
                ) from None
    return out
