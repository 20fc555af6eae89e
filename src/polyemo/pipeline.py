"""A fitted end-to-end pipeline: tokenizer + representation + reduction + classifier.

PipelineModel is what the experiment runner persists per cell and what the
predict command loads to label new id,text files. Pipelines built on
precomputed document vectors cannot embed raw text, so predicting from text
with one is a configuration error rather than a silent zero-vector fallback.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .corpus import EMOTIONS
from .dense_features import EmbeddingTable, embed_documents
from .errors import ConfigError, DataError, SchemaError, open_input
from .reduce import PcaModel, normalize_rows, transform_pca
from .sparse_features import TfidfModel, transform_tfidf
from .tokenize import Tokenizer, TokenizerSpec

# Not called here; kept importable under polyemo.pipeline because the tracing
# benchmark (perfbench/spans.py) wraps these names by module attribute.
from .sparse_features import transform_bow  # noqa: F401


@dataclass
class PipelineModel:
    """The one featurizer of a cell: training, scoring and predict all go through it.

    A bow representation is a ``TfidfModel`` with unit idf and no row
    normalization, so it shares the tf-idf transform.
    """

    language: str
    representation: str
    representation_kind: str  # bow | tfidf | word-vectors | precomputed
    tokenizer_spec: TokenizerSpec
    tokenizer_vocab: tuple[str, ...] = ()
    tfidf: TfidfModel | None = None
    embeddings: EmbeddingTable | None = None
    normalize: bool = True
    pca: PcaModel | None = None
    classifier: object = None
    emotions: tuple[str, ...] = EMOTIONS

    def make_tokenizer(self) -> Tokenizer:
        if self.representation_kind == "precomputed":
            raise ConfigError(
                "this model was trained on precomputed document vectors and "
                "cannot embed raw text"
            )
        if self.tokenizer_spec.kind == "external-vocab":
            return Tokenizer.from_tokens(self.tokenizer_spec, self.tokenizer_vocab)
        return Tokenizer(self.tokenizer_spec)

    def represent(self, token_seqs):
        """Map token sequences to the representation's features, before reduction."""
        if self.representation_kind == "word-vectors":
            x, _ = embed_documents(token_seqs, self.embeddings)
            return x
        if self.representation_kind in ("bow", "tfidf"):
            return transform_tfidf(token_seqs, self.tfidf)
        raise ConfigError(f"unknown representation kind {self.representation_kind!r}")

    def reduce(self, x):
        """Row normalization, then PCA, as configured."""
        if self.normalize:
            x = normalize_rows(x)
        if self.pca is not None:
            x = transform_pca(x, self.pca)
        return x

    def features(self, texts: list[str]):
        """Map raw texts to the feature space the classifier was trained in."""
        tok = self.make_tokenizer()
        return self.reduce(self.represent([tok(t) for t in texts]))

    def predict_texts(self, texts: list[str]) -> np.ndarray:
        x = self.features(texts)
        return self.classifier.predict(x)


def write_predictions(path: str | Path, ids: list[str], pred: np.ndarray, emotions=EMOTIONS) -> None:
    """Emit the submission-format CSV: id plus one binary column per emotion.

    The file is replaced whole or not at all.
    """
    pred = np.asarray(pred)
    if pred.shape != (len(ids), len(emotions)):
        raise ConfigError(
            f"prediction matrix shape {pred.shape} does not fit {len(ids)} ids "
            f"and {len(emotions)} labels"
        )
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + list(emotions))
        for i, doc_id in enumerate(ids):
            writer.writerow([doc_id] + [str(int(v)) for v in pred[i]])


def read_predictions(path: str | Path, emotions=EMOTIONS) -> tuple[list[str], np.ndarray]:
    """Inverse of write_predictions; validates the header and binary cells."""
    path = Path(path)
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        expected = ["id"] + list(emotions)
        if header != expected:
            raise SchemaError(f"{path}: header {header!r} != expected {expected!r}")
        ids = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise DataError(f"{path}: line {lineno} has {len(row)} cells")
            ids.append(row[0])
            for cell in row[1:]:
                if cell not in ("0", "1"):
                    raise DataError(f"{path}: non-binary cell {cell!r} at line {lineno}")
            rows.append([int(c) for c in row[1:]])
    return ids, np.array(rows, dtype=np.int64).reshape(len(ids), len(emotions))
