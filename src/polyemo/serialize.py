"""Pickle-free persistence for fitted models.

Everything is stored in a single .npz container: numeric arrays as npz
members, and the object structure as a JSON document kept in a ``__meta__``
uint8 member. Loading never unpickles, so a model file cannot execute code.
Each registered class encodes to a dict of plain values, containers, arrays,
and other registered objects; a decision tree is its five preorder node
arrays.

The container carries a format version; a mismatch raises FormatError
instead of guessing.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, FormatError

FORMAT_NAME = "polyemo"
FORMAT_VERSION = 2  # 2: a bow pipeline stores its vocabulary as a unit-idf TfidfModel


def _encode_node(value, arrays: dict, counter: list):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        key = f"a{counter[0]}"
        counter[0] += 1
        arrays[key] = value
        return {"__kind__": "array", "key": key}
    if isinstance(value, list):
        return {"__kind__": "list", "items": [_encode_node(v, arrays, counter) for v in value]}
    if isinstance(value, tuple):
        return {"__kind__": "tuple", "items": [_encode_node(v, arrays, counter) for v in value]}
    if isinstance(value, dict):
        items = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise ConfigError(f"only string dict keys can be serialized, got {k!r}")
            items[k] = _encode_node(v, arrays, counter)
        return {"__kind__": "dict", "items": items}
    type_name = type(value).__name__
    if type_name not in _REGISTRY:
        raise ConfigError(f"cannot serialize object of type {type_name}")
    encode, _ = _REGISTRY[type_name]
    fields = {k: _encode_node(v, arrays, counter) for k, v in encode(value).items()}
    return {"__kind__": "object", "type": type_name, "fields": fields}


def _decode_node(node, arrays):
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    kind = node.get("__kind__")
    if kind == "array":
        return arrays[node["key"]]
    if kind == "list":
        return [_decode_node(v, arrays) for v in node["items"]]
    if kind == "tuple":
        return tuple(_decode_node(v, arrays) for v in node["items"])
    if kind == "dict":
        return {k: _decode_node(v, arrays) for k, v in node["items"].items()}
    if kind == "object":
        type_name = node["type"]
        if type_name not in _REGISTRY:
            raise FormatError(f"model file references unknown type {type_name!r}")
        _, decode = _REGISTRY[type_name]
        fields = {k: _decode_node(v, arrays) for k, v in node["fields"].items()}
        return decode(fields)
    raise FormatError(f"malformed model node {node!r}")


def save_model(obj, path: str | Path) -> None:
    """Write any registered object (and everything it references) to ``path``.

    The file is replaced whole or not at all: a failed save leaves the
    previous model in place.
    """
    arrays: dict[str, np.ndarray] = {}
    counter = [0]
    root = _encode_node(obj, arrays, counter)
    meta = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "root": root}
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with atomic_open(path, "wb") as fh:
        np.savez_compressed(fh, __meta__=meta_bytes, **arrays)


def load_model(path: str | Path):
    """Read back an object written by save_model; never unpickles."""
    path = Path(path)
    try:
        container = np.load(path, allow_pickle=False)
    except OSError as exc:
        raise FormatError(f"cannot read model {path}: {exc}") from exc
    except (ValueError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not a model file: {exc}") from exc
    with container as z:
        if "__meta__" not in z.files:
            raise FormatError(f"{path}: not a model file (missing metadata)")
        try:
            meta = json.loads(z["__meta__"].tobytes().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt model metadata: {exc}") from exc
        if meta.get("format") != FORMAT_NAME:
            raise FormatError(f"{path}: unrecognized container format {meta.get('format')!r}")
        if meta.get("version") != FORMAT_VERSION:
            raise FormatError(
                f"{path}: model format version {meta.get('version')!r} is not "
                f"supported (this build reads version {FORMAT_VERSION})"
            )
        arrays = {k: z[k] for k in z.files if k != "__meta__"}
    return _decode_node(meta["root"], arrays)


# ---------------------------------------------------------------------------
# per-class encoders and decoders


def _fields_of(obj, names):
    return {name: getattr(obj, name) for name in names}


def _encode_vocabulary(v):
    from .sparse_features import Vocabulary  # noqa: F401

    return _fields_of(v, ("index", "document_frequency", "corpus_size"))


def _decode_vocabulary(f):
    from .sparse_features import Vocabulary

    return Vocabulary(
        index=f["index"],
        document_frequency=f["document_frequency"],
        corpus_size=f["corpus_size"],
    )


def _encode_tfidf(m):
    return _fields_of(m, ("vocabulary", "idf", "row_normalize"))


def _decode_tfidf(f):
    from .sparse_features import TfidfModel

    return TfidfModel(vocabulary=f["vocabulary"], idf=f["idf"], row_normalize=f["row_normalize"])


def _encode_pca(m):
    return _fields_of(
        m,
        ("mean", "components", "explained_variance", "explained_variance_ratio", "n_samples"),
    )


def _decode_pca(f):
    from .reduce import PcaModel

    return PcaModel(
        mean=f["mean"],
        components=f["components"],
        explained_variance=f["explained_variance"],
        explained_variance_ratio=f["explained_variance_ratio"],
        n_samples=f["n_samples"],
    )


def _encode_embedding_table(t):
    tokens = sorted(t.vectors)
    matrix = (
        np.vstack([t.vectors[tok] for tok in tokens])
        if tokens
        else np.zeros((0, t.dimension))
    )
    return {
        "dimension": t.dimension,
        "language": t.language,
        "source": t.source,
        "tokens": list(tokens),
        "matrix": matrix,
    }


def _decode_embedding_table(f):
    from .dense_features import EmbeddingTable

    vectors = {tok: f["matrix"][i] for i, tok in enumerate(f["tokens"])}
    return EmbeddingTable(
        dimension=f["dimension"], vectors=vectors, language=f["language"], source=f["source"]
    )


def _encode_tokenizer_spec(s):
    return _fields_of(s, ("kind", "lowercase", "vocab_path"))


def _decode_tokenizer_spec(f):
    from .tokenize import TokenizerSpec

    return TokenizerSpec(kind=f["kind"], lowercase=f["lowercase"], vocab_path=f["vocab_path"])


def _encode_classifier_spec(s):
    return _fields_of(s, ("kind", "hyperparameters", "seed", "members"))


def _decode_classifier_spec(f):
    from .learn import ClassifierSpec

    return ClassifierSpec(
        kind=f["kind"],
        hyperparameters=f["hyperparameters"],
        seed=f["seed"],
        members=tuple(f["members"]),
    )


def _require_fitted(model, attr):
    if getattr(model, attr) is None:
        raise ConfigError(f"cannot serialize an unfitted {type(model).__name__}")


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _encode_decision_tree(t):
    _require_fitted(t, "feature")
    return _fields_of(t, ("spec", "input_dim", "n_labels") + TREE_ARRAYS)


def _decode_decision_tree(f):
    from .learn import DecisionTree

    t = DecisionTree(f["spec"])
    t.input_dim = f["input_dim"]
    t.n_labels = f["n_labels"]
    for name in TREE_ARRAYS:
        setattr(t, name, f[name])
    return t


def _encode_random_forest(m):
    if not m.trees:
        raise ConfigError("cannot serialize an unfitted RandomForest")
    return {
        "spec": m.spec,
        "input_dim": m.input_dim,
        "n_labels": m.n_labels,
        "trees": list(m.trees),
    }


def _decode_random_forest(f):
    from .learn import RandomForest

    m = RandomForest(f["spec"])
    m.input_dim = f["input_dim"]
    m.n_labels = f["n_labels"]
    m.trees = list(f["trees"])
    return m


def _encode_knn(m):
    _require_fitted(m, "x")
    return _fields_of(m, ("spec", "x", "y", "input_dim", "n_labels"))


def _decode_knn(f):
    from .learn import KNearestNeighbors

    m = KNearestNeighbors(f["spec"])
    m.x = f["x"]
    m.y = f["y"]
    m.input_dim = f["input_dim"]
    m.n_labels = f["n_labels"]
    return m


def _encode_svm(m):
    _require_fitted(m, "w")
    return _fields_of(m, ("spec", "w", "b", "input_dim", "n_labels"))


def _decode_svm(f):
    from .learn import LinearSvm

    m = LinearSvm(f["spec"])
    m.w = f["w"]
    m.b = f["b"]
    m.input_dim = f["input_dim"]
    m.n_labels = f["n_labels"]
    return m


def _encode_mlp(m):
    if not m.weights:
        raise ConfigError("cannot serialize an unfitted Mlp")
    return _fields_of(m, ("spec", "weights", "biases", "input_dim", "n_labels"))


def _decode_mlp(f):
    from .learn import Mlp

    m = Mlp(f["spec"])
    m.weights = list(f["weights"])
    m.biases = list(f["biases"])
    m.input_dim = f["input_dim"]
    m.n_labels = f["n_labels"]
    return m


def _encode_voting(m):
    if not m.members:
        raise ConfigError("cannot serialize an unfitted VotingEnsemble")
    return _fields_of(m, ("spec", "members", "input_dim", "n_labels"))


def _decode_voting(f):
    from .learn import VotingEnsemble

    m = VotingEnsemble(f["spec"])
    m.members = list(f["members"])
    m.input_dim = f["input_dim"]
    m.n_labels = f["n_labels"]
    return m


def _encode_pipeline(p):
    return {f.name: getattr(p, f.name) for f in dataclasses.fields(p)}


def _decode_pipeline(f):
    from .pipeline import PipelineModel

    return PipelineModel(**f)


_REGISTRY = {
    "Vocabulary": (_encode_vocabulary, _decode_vocabulary),
    "TfidfModel": (_encode_tfidf, _decode_tfidf),
    "PcaModel": (_encode_pca, _decode_pca),
    "EmbeddingTable": (_encode_embedding_table, _decode_embedding_table),
    "TokenizerSpec": (_encode_tokenizer_spec, _decode_tokenizer_spec),
    "ClassifierSpec": (_encode_classifier_spec, _decode_classifier_spec),
    "DecisionTree": (_encode_decision_tree, _decode_decision_tree),
    "RandomForest": (_encode_random_forest, _decode_random_forest),
    "KNearestNeighbors": (_encode_knn, _decode_knn),
    "LinearSvm": (_encode_svm, _decode_svm),
    "Mlp": (_encode_mlp, _decode_mlp),
    "VotingEnsemble": (_encode_voting, _decode_voting),
    "PipelineModel": (_encode_pipeline, _decode_pipeline),
}
