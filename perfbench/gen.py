"""Seeded input generators for the benchmark workloads.

Everything here depends only on numpy and the standard library, so inputs
are built before the measured process imports ``polyemo``. The same seed
always gives byte-identical files.

Two corpus families are produced:

- ``write_synthetic``: the 600-document corpus the acceptance tests use, a
  line-for-line port of ``polyemo.synthetic`` (same random draws in the same
  order, so seed 0 reproduces the test corpus byte for byte), plus its
  12-dimensional word-vector file.
- ``write_wide``: languages ``es`` and ``gl`` with Zipfian background
  vocabularies, a sprinkling of non-ASCII letters and per-emotion signal
  words, and one 30k x 100 word-vector file for ``es``. ``gl`` shares about
  half of its word types with ``es`` and reaches its vectors through the
  static fallback map.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

EMOTIONS = ("anger", "disgust", "fear", "joy", "sadness", "surprise")
SPLIT_FRACTIONS = {"train": 0.7, "dev": 0.1}  # remainder is test
REQUEST_DOCS = 32

# ---------------------------------------------------------------------------
# shared writers


def _split(documents, rng) -> dict[str, list]:
    order = rng.permutation(len(documents))
    n_train = int(SPLIT_FRACTIONS["train"] * len(documents))
    n_dev = int(SPLIT_FRACTIONS["dev"] * len(documents))
    slices = {
        "train": order[:n_train],
        "dev": order[n_train : n_train + n_dev],
        "test": order[n_train + n_dev :],
    }
    return {role: [documents[k] for k in idx] for role, idx in slices.items()}


def _write_csv(path: Path, documents, labeled: bool = True) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text"] + (list(EMOTIONS) if labeled else []))
        for doc_id, text, labels in documents:
            writer.writerow([doc_id, text] + ([str(v) for v in labels] if labeled else []))


def _write_splits(data_dir: Path, language: str, splits) -> None:
    for role, docs in splits.items():
        _write_csv(data_dir / language / f"{role}.csv", docs)


def write_requests(req_dir: Path, name: str, test_docs) -> dict:
    """Unlabeled request files drawn from held-out test documents.

    Writes the whole test split (``<name>.all.csv``) plus four
    ``REQUEST_DOCS``-document windows starting at its start, quarter, half
    and end. Returns the file paths, the test split's size and the ids each
    window holds.
    """
    n = len(test_docs)
    starts = sorted({0, n // 4, n // 2, max(0, n - REQUEST_DOCS)})
    out = {"all": str(req_dir / f"{name}.all.csv"), "docs": n, "batches": []}
    _write_csv(Path(out["all"]), test_docs, labeled=False)
    for k, start in enumerate(starts):
        batch = test_docs[start : start + REQUEST_DOCS]
        path = req_dir / f"{name}.{k}.csv"
        _write_csv(path, batch, labeled=False)
        out["batches"].append({"path": str(path), "ids": [d[0] for d in batch]})
    return out


def _write_vectors(path: Path, words, matrix: np.ndarray, fmt: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    row_fmt = " ".join([fmt] * matrix.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        fh.writelines(f"{w} {row_fmt % tuple(row)}\n" for w, row in zip(words, matrix.tolist()))


# ---------------------------------------------------------------------------
# the acceptance-test corpus

SYN_WORDS_PER_EMOTION = 15
SYN_FILLER_WORDS = 30
SYN_SECONDARY_RATE = 0.15


def _synthetic_vocabulary() -> dict[str, list[str]]:
    vocab = {
        emo: [f"{emo}w{i:02d}" for i in range(SYN_WORDS_PER_EMOTION)] for emo in EMOTIONS
    }
    vocab["filler"] = [f"fillerw{i:02d}" for i in range(SYN_FILLER_WORDS)]
    return vocab


def _synthetic_document(i: int, rng, vocab):
    primary = i % len(EMOTIONS)
    labels = [0] * len(EMOTIONS)
    labels[primary] = 1
    for j in range(len(EMOTIONS)):
        if j != primary and rng.random() < SYN_SECONDARY_RATE:
            labels[j] = 1
    words: list[str] = []
    for j, emo in enumerate(EMOTIONS):
        if labels[j]:
            count = int(rng.integers(6, 11))
            words.extend(rng.choice(vocab[emo], size=count).tolist())
    words.extend(rng.choice(vocab["filler"], size=int(rng.integers(2, 5))).tolist())
    rng.shuffle(words)
    return (f"syn{i:04d}", " ".join(words), tuple(labels))


def write_synthetic(root: Path, seed: int, n_documents: int = 600, dimension: int = 12) -> dict:
    """The acceptance corpus under ``root/data/syn`` and its vectors at ``root/syn.vec``."""
    rng = np.random.default_rng(seed)
    vocab = _synthetic_vocabulary()
    documents = [_synthetic_document(i, rng, vocab) for i in range(n_documents)]
    splits = _split(documents, rng)
    _write_splits(root / "data", "syn", splits)

    rng = np.random.default_rng(seed)
    words, rows = [], []
    for j, emo in enumerate(EMOTIONS):
        for word in vocab[emo]:
            vec = rng.normal(0.0, 0.05, size=dimension)
            vec[j] += 2.0
            words.append(word)
            rows.append(vec)
    for word in vocab["filler"]:
        words.append(word)
        rows.append(rng.normal(0.0, 0.05, size=dimension))
    _write_vectors(root / "syn.vec", words, np.array(rows), "%.6f")
    return splits


# ---------------------------------------------------------------------------
# the wide two-language corpus

WIDE_BACKGROUND_TYPES = 3000
WIDE_SIGNAL_PER_EMOTION = 40
WIDE_VECTOR_ROWS = 30_000
WIDE_DIMENSION = 100
WIDE_ZIPF_EXPONENT = 1.05
WIDE_SECONDARY_RATE = 0.15
WIDE_SHARED_FRACTION = 0.5

# letters whose case folding round-trips, so capitalized sentence starts
# tokenize back to the same lowercase word
CONSONANTS = list("bcdfghjklmnprstvz") + ["ñ", "ç", "ch", "ll", "rr"]
VOWELS = list("aeiou") + ["á", "é", "í", "ó", "ú", "ã", "õ", "ö", "ü"]
VOWEL_WEIGHTS = np.array([6.0] * 5 + [1.0] * 9)


def _word_factory(rng):
    """Fresh, never-repeated words of 2-4 consonant-vowel syllables."""
    seen: set[str] = set()
    vowel_cdf = np.cumsum(VOWEL_WEIGHTS / VOWEL_WEIGHTS.sum())

    def make(n: int) -> list[str]:
        out: list[str] = []
        while len(out) < n:
            m = n - len(out)
            lengths = rng.integers(2, 5, size=m).tolist()
            cons = rng.integers(0, len(CONSONANTS), size=(m, 4)).tolist()
            vows = np.searchsorted(vowel_cdf, rng.random((m, 4)), side="right")
            vows = np.minimum(vows, len(VOWELS) - 1).tolist()
            for k, c, v in zip(lengths, cons, vows):
                word = "".join(CONSONANTS[c[s]] + VOWELS[v[s]] for s in range(k))
                if word not in seen:
                    seen.add(word)
                    out.append(word)
        return out

    return make


def _mix(rng, base: list[str], fresh: list[str], shared_fraction: float) -> list[str]:
    n_shared = int(round(shared_fraction * len(base)))
    keep = sorted(rng.choice(len(base), size=n_shared, replace=False).tolist())
    return [base[k] for k in keep] + fresh[: len(base) - n_shared]


def _wide_language(rng, language: str, n_documents: int, background, signal) -> list:
    ranks = rng.permutation(len(background))
    weights = 1.0 / (ranks + 1.0) ** WIDE_ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    documents = []
    for i in range(n_documents):
        primary = i % len(EMOTIONS)
        labels = [0] * len(EMOTIONS)
        labels[primary] = 1
        for j in range(len(EMOTIONS)):
            if j != primary and rng.random() < WIDE_SECONDARY_RATE:
                labels[j] = 1
        draws = np.searchsorted(cdf, rng.random(int(rng.integers(15, 36))), side="right")
        words = [background[k] for k in np.minimum(draws, len(background) - 1).tolist()]
        for j in range(len(EMOTIONS)):
            if labels[j]:
                words.extend(rng.choice(signal[j], size=int(rng.integers(3, 7))).tolist())
        rng.shuffle(words)
        cut = int(rng.integers(3, len(words) - 2))
        text = " ".join(words[:cut]) + ", " + " ".join(words[cut:])
        text = text[0].upper() + text[1:] + (". " if i % 3 else "! ")
        documents.append((f"{language}{i:05d}", text.strip(), tuple(labels)))
    return documents


def write_wide(root: Path, seed: int, corpora: dict[str, int]) -> dict:
    """Word-vector file ``root/es.vec`` plus the requested corpora.

    ``corpora`` maps ``<data dir>/<language>`` under ``root`` to a document
    count; language ``es`` owns the vector file and ``gl`` shares about half
    of its word types with it. The vocabularies and the vector file depend
    only on the seed, never on which corpora are asked for. Returns
    ``{corpus key: splits}``.
    """
    rng = np.random.default_rng([seed, 2])
    make = _word_factory(rng)
    background = {"es": make(WIDE_BACKGROUND_TYPES)}
    signal = {"es": [make(WIDE_SIGNAL_PER_EMOTION) for _ in EMOTIONS]}
    background["gl"] = _mix(rng, background["es"], make(WIDE_BACKGROUND_TYPES), WIDE_SHARED_FRACTION)
    signal["gl"] = [
        _mix(rng, words, make(WIDE_SIGNAL_PER_EMOTION), WIDE_SHARED_FRACTION)
        for words in signal["es"]
    ]

    # vectors: every "es" word plus unseen filler rows; each emotion's
    # signal words point along that emotion's axis
    words = list(background["es"])
    matrix = [rng.normal(0.0, 0.3, size=(len(words), WIDE_DIMENSION))]
    for j, group in enumerate(signal["es"]):
        block = rng.normal(0.0, 0.05, size=(len(group), WIDE_DIMENSION))
        block[:, j] += 2.0
        words += group
        matrix.append(block)
    filler = make(WIDE_VECTOR_ROWS - len(words))
    words += filler
    matrix.append(rng.normal(0.0, 0.3, size=(len(filler), WIDE_DIMENSION)))
    order = rng.permutation(len(words))
    matrix = np.vstack(matrix)[order]
    _write_vectors(root / "es.vec", [words[k] for k in order], matrix, "%.5f")

    out = {}
    for k, (key, n_documents) in enumerate(sorted(corpora.items())):
        data_dir, language = key.split("/")
        doc_rng = np.random.default_rng([seed, 3, k])
        docs = _wide_language(doc_rng, language, n_documents, background[language], signal[language])
        out[key] = _split(docs, doc_rng)
        _write_splits(root / data_dir, language, out[key])
    return out


# ---------------------------------------------------------------------------
# workload inputs

WORKLOADS = ("acceptance-matrix", "wide-multilingual", "predict-serve")

# Sizes and hyperparameters are chosen so every cell learns and the 70 runs
# of a full benchmark pass stay well inside its time budget.
WIDE_DOCUMENTS = 1000
SERVE_WV_DOCUMENTS = 600
MLP_GRID = {"hidden_sizes": [[32]], "epochs": [15], "learning_rate": [0.05, 0.1]}
# the default 0.1 learning rate leaves every wide tf-idf svm predicting all zeros
SVM_HYPERPARAMETERS = {"learning_rate": 10.0, "epochs": 200}


def _config(root: Path, name: str, seed: int, **fields) -> str:
    raw = dict(fields, seed=seed, workers=1, out_dir=f"out-{name}")
    path = root / f"{name}.json"
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return str(path)


def prepare(workload: str, seed: int, root: Path) -> dict:
    """Write every input of ``workload`` under ``root`` and return the run plan.

    The plan lists the experiment configs in run order, the representations
    whose models are served back after a matrix run, and per language the
    unlabeled request files drawn from its test split.
    """
    root.mkdir(parents=True, exist_ok=True)
    served = None  # representations whose models are served back; None: all
    if workload == "acceptance-matrix":
        # tests/test_acceptance.py::matrix_raw on the acceptance corpus
        splits = write_synthetic(root, seed)
        configs = [
            _config(
                root,
                "matrix",
                seed,
                data_dir="data",
                languages=["syn"],
                representations=[
                    {"name": "bow", "kind": "bow"},
                    {"name": "tfidf", "kind": "tfidf"},
                    {"name": "word-vectors", "kind": "word-vectors", "vectors": {"syn": "syn.vec"}},
                ],
                classifiers=[
                    {"name": "dt", "kind": "dt"},
                    {"name": "voting", "kind": "voting"},
                    {"name": "mlp", "kind": "mlp"},
                ],
                reduction={"pca": [True, False]},
            )
        ]
        requests = {"syn": write_requests(root / "requests", "syn", splits["test"])}
    elif workload == "wide-multilingual":
        corpora = write_wide(root, seed, {"data/es": WIDE_DOCUMENTS, "data/gl": WIDE_DOCUMENTS})
        configs = [
            _config(
                root,
                "matrix",
                seed,
                data_dir="data",
                languages=["es", "gl"],
                representations=[
                    {"name": "tfidf", "kind": "tfidf"},
                    {"name": "word-vectors", "kind": "word-vectors", "vectors": {"es": "es.vec"}},
                ],
                classifiers=[
                    {"name": "knn", "kind": "knn"},
                    {"name": "svm", "kind": "svm", "hyperparameters": SVM_HYPERPARAMETERS},
                    {"name": "mlp", "kind": "mlp", "grid": MLP_GRID},
                ],
                reduction={"pca": [True, False], "components": 0.9},
                fallback={"static_map": {"gl": "es"}},
            )
        ]
        requests = {
            "es": write_requests(root / "requests", "es", corpora["data/es"]["test"]),
            "gl": write_requests(root / "requests", "gl", corpora["data/gl"]["test"]),
        }
        # only the word-vector models are served back: they carry the large
        # table, and one kind of model keeps the latency percentiles steady
        served = ["word-vectors"]
    elif workload == "predict-serve":
        syn = write_synthetic(root / "syn", seed)
        wide = write_wide(root, seed, {"serve-data/es": SERVE_WV_DOCUMENTS})
        configs = [
            _config(
                root,
                "tfidf",
                seed,
                data_dir="syn/data",
                languages=["syn"],
                representations=[{"name": "tfidf", "kind": "tfidf"}],
                classifiers=[{"name": "voting", "kind": "voting"}, {"name": "mlp", "kind": "mlp"}],
                reduction={"pca": [False]},
            ),
            _config(
                root,
                "word-vectors",
                seed,
                data_dir="serve-data",
                languages=["es"],
                representations=[
                    {"name": "word-vectors", "kind": "word-vectors", "vectors": {"es": "es.vec"}}
                ],
                # at the default 1e-3 learning rate this mlp stops far short of learning
                classifiers=[
                    {"name": "voting", "kind": "voting"},
                    {"name": "mlp", "kind": "mlp", "hyperparameters": {"learning_rate": 0.01}},
                ],
                reduction={"pca": [True], "components": 0.9},
            ),
        ]
        requests = {
            "syn": write_requests(root / "requests", "syn", syn["test"]),
            "es": write_requests(root / "requests", "es", wide["serve-data/es"]["test"]),
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "workload": workload,
        "seed": seed,
        "configs": configs,
        "requests": requests,
        "served_representations": served,
    }
