"""Loading, validation, and summarization of emotion-labeled CSV datasets.

Files are comma-separated UTF-8 with a header row. A labeled file carries
``id``, ``text`` and the six emotion columns; an unlabeled file carries only
``id`` and ``text``. Extra columns are ignored. The on-disk layout consumed
by the experiment runner is ``<data-dir>/<lang>/{train,dev,test}.csv``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, DataError, SchemaError, open_input

EMOTIONS = ("anger", "disgust", "fear", "joy", "sadness", "surprise")
ROLES = ("train", "dev", "test")


@dataclass(frozen=True)
class LabeledDocument:
    """One text sample; ``labels`` is a 6-tuple of {0,1} or None when unlabeled."""

    id: str
    text: str
    labels: tuple[int, ...] | None = None


@dataclass(frozen=True)
class DatasetSplit:
    """An ordered, immutable collection of documents for one language and role."""

    language: str
    role: str
    documents: tuple[LabeledDocument, ...]

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def labeled(self) -> bool:
        return all(d.labels is not None for d in self.documents)

    def label_matrix(self) -> np.ndarray:
        """Stack labels into an (n_docs, 6) int array; error if any are absent."""
        if not self.documents or not self.labeled:
            raise DataError(f"split {self.language}/{self.role} carries no labels")
        return np.array([d.labels for d in self.documents], dtype=np.int64)

    def texts(self) -> list[str]:
        return [d.text for d in self.documents]

    def ids(self) -> list[str]:
        return [d.id for d in self.documents]


def load_split(path: str | Path, role: str, language: str | None = None) -> DatasetSplit:
    """Read one CSV split into a DatasetSplit, preserving file order.

    Label columns must be all present (labeled) or all absent (unlabeled);
    train and dev splits must be labeled. ``language`` defaults to the name
    of the file's parent directory.
    """
    path = Path(path)
    if role not in ROLES:
        raise ConfigError(f"unknown split role {role!r}, expected one of {ROLES}")
    if language is None:
        language = path.parent.name

    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        rows = list(reader)

    col = {name: i for i, name in enumerate(header)}
    for required in ("id", "text"):
        if required not in col:
            raise SchemaError(f"{path}: missing required column {required!r}")
    present = [e for e in EMOTIONS if e in col]
    if present and len(present) < len(EMOTIONS):
        missing = [e for e in EMOTIONS if e not in col]
        raise SchemaError(f"{path}: incomplete label columns, missing {missing}")
    has_labels = bool(present)
    if role in ("train", "dev") and not has_labels:
        missing = list(EMOTIONS)
        raise SchemaError(f"{path}: {role} split requires label columns, missing {missing}")

    if not rows:
        raise DataError(f"{path}: no data rows")

    documents = []
    seen_ids: set[str] = set()
    for i, row in enumerate(rows):
        lineno = i + 2  # header is line 1
        if len(row) < len(col):
            raise DataError(f"{path}: row at line {lineno} has {len(row)} cells, expected {len(col)}")
        doc_id = row[col["id"]]
        text = row[col["text"]]
        if doc_id in seen_ids:
            raise DataError(f"{path}: duplicate id {doc_id!r} at line {lineno}")
        seen_ids.add(doc_id)
        if not text.strip():
            raise DataError(f"{path}: empty text for id {doc_id!r} at line {lineno}")
        labels = None
        if has_labels:
            labels = tuple(_parse_label(row[col[e]], e, path, lineno) for e in EMOTIONS)
        documents.append(LabeledDocument(id=doc_id, text=text, labels=labels))

    return DatasetSplit(language=language, role=role, documents=tuple(documents))


def _parse_label(cell: str, emotion: str, path: Path, lineno: int) -> int:
    value = cell.strip()
    if value not in ("0", "1"):
        raise DataError(
            f"{path}: non-binary {emotion} value {cell!r} at line {lineno}"
        )
    return int(value)


def save_split(split: DatasetSplit, path: str | Path) -> None:
    """Write a split back to CSV; inverse of load_split for round-tripping."""
    labeled = split.labeled and len(split) > 0
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["id", "text"] + (list(EMOTIONS) if labeled else [])
        writer.writerow(header)
        for doc in split.documents:
            row = [doc.id, doc.text]
            if labeled:
                row += [str(v) for v in doc.labels]
            writer.writerow(row)


@dataclass(frozen=True)
class LabelSummary:
    """Per-label positive/negative counts over one split."""

    label: str
    positives: int
    negatives: int

    @property
    def positive_fraction(self) -> float:
        return self.positives / (self.positives + self.negatives)

    @property
    def negative_fraction(self) -> float:
        return 1.0 - self.positive_fraction


def summarize(split: DatasetSplit) -> list[LabelSummary]:
    """Count positives and negatives per emotion label."""
    y = split.label_matrix()
    n = y.shape[0]
    out = []
    for j, name in enumerate(EMOTIONS):
        pos = int(y[:, j].sum())
        out.append(LabelSummary(label=name, positives=pos, negatives=n - pos))
    return out
