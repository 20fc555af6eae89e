"""Function-level spans around the program's public entry points.

Wrappers are installed from outside the program, only in a traced run, on
the names its callers actually resolve: the functions ``polyemo.runner`` and
``polyemo.pipeline`` imported into their own namespaces, a few module
functions looked up at call time, and the ``fit``/``predict`` methods of the
learner classes. Each call becomes one span (name, start, end, parent, run
id) kept in memory; the benchmark writes them out when the run ends.

A span's self time is its duration minus the part covered by its children.
Per-layer figures are sums over spans grouped by layer name.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# (module, attribute, layer) for functions resolved through module globals
FUNCTIONS = [
    ("polyemo.runner", "run_matrix", "runner"),
    ("polyemo.runner", "build_representation", "runner"),
    ("polyemo.runner", "run_cell", "runner"),
    ("polyemo.runner", "predict_file", "runner"),
    ("polyemo.runner", "load_split", "corpus"),
    ("polyemo.runner", "tokenize_split", "tokenize"),
    ("polyemo.runner", "fit_bow", "sparse_features"),
    ("polyemo.runner", "transform_bow", "sparse_features"),
    ("polyemo.runner", "fit_tfidf", "sparse_features"),
    ("polyemo.runner", "transform_tfidf", "sparse_features"),
    ("polyemo.runner", "save_vocabulary", "sparse_features"),
    ("polyemo.runner", "load_word_vectors", "dense_features"),
    ("polyemo.runner", "embed_documents", "dense_features"),
    ("polyemo.dense_features", "resolve_language", "dense_features"),
    ("polyemo.runner", "normalize_rows", "reduce"),
    ("polyemo.runner", "fit_pca", "reduce"),
    ("polyemo.runner", "transform_pca", "reduce"),
    ("polyemo.runner", "fit", "learn"),
    ("polyemo.runner", "grid_search_mlp", "learn.search"),
    ("polyemo.runner", "write_predictions", "pipeline"),
    ("polyemo.runner", "read_predictions", "pipeline"),
    ("polyemo.runner", "f1_macro", "evaluate"),
    ("polyemo.runner", "confusion_rates", "evaluate"),
    ("polyemo.runner", "save_model", "serialize"),
    ("polyemo.runner", "load_model", "serialize"),
    ("polyemo.pipeline", "transform_bow", "sparse_features"),
    ("polyemo.pipeline", "transform_tfidf", "sparse_features"),
    ("polyemo.pipeline", "embed_documents", "dense_features"),
    ("polyemo.pipeline", "normalize_rows", "reduce"),
    ("polyemo.pipeline", "transform_pca", "reduce"),
]

# (module, class, methods, layer)
METHODS = [
    ("polyemo.tokenize", "Tokenizer", ("__call__",), "tokenize"),
    ("polyemo.pipeline", "PipelineModel", ("features", "predict_texts"), "pipeline"),
    ("polyemo.learn.tree", "DecisionTree", ("fit", "predict"), "learn.tree"),
    ("polyemo.learn.tree", "RandomForest", ("fit", "predict"), "learn.tree"),
    ("polyemo.learn.neighbors", "KNearestNeighbors", ("fit", "predict"), "learn.neighbors"),
    ("polyemo.learn.svm", "LinearSvm", ("fit", "predict"), "learn.svm"),
    ("polyemo.learn.mlp", "Mlp", ("fit", "predict"), "learn.mlp"),
    ("polyemo.learn.voting", "VotingEnsemble", ("fit", "predict"), "learn.voting"),
]

LEARNER_METHODS = {f"{layer}.{cls}.{m}" for _, cls, ms, layer in METHODS if layer.startswith("learn") for m in ms}

MB = 1e6


def _digest(m) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((type(m).__name__, m.shape)).encode())
    if sp.issparse(m):
        m = sp.csr_matrix(m)
        for part in (m.data, m.indices, m.indptr):
            h.update(np.ascontiguousarray(part).tobytes())
    else:
        h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()


def _sparse_mb(m) -> float:
    return m.shape[0] * m.shape[1] * 8 / MB if sp.issparse(m) else 0.0


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start_ns, end_ns]
        self._stack: list[int] = []
        self.counts = {
            "tokens": 0,
            "vocab": 0,
            "nnz": 0,
            "oov_tokens": 0,
            "embedded_tokens": 0,
            "densified_mb": 0.0,
            "saved_mb": 0.0,
            "loaded_mb": 0.0,
            "pca_inputs": set(),
            "pca_fits": 0,
            "vector_paths": set(),
            "vector_loads": 0,
        }
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, time.perf_counter_ns(), 0]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observer(self, name: str):
        c = self.counts
        short = name.rsplit(".", 1)[-1]
        if name == "tokenize.Tokenizer.__call__":
            def obs(a, k, r):
                c["tokens"] += len(r.tokens)
        elif short in ("fit_bow", "fit_tfidf") and name.startswith("sparse_features"):
            def obs(a, k, r):
                c["vocab"] += len(r) if short == "fit_bow" else len(r.vocabulary)
        elif short in ("transform_bow", "transform_tfidf"):
            def obs(a, k, r):
                c["nnz"] += r.nnz
        elif name == "dense_features.embed_documents":
            def obs(a, k, r):
                c["oov_tokens"] += r[1].n_oov_tokens
                c["embedded_tokens"] += r[1].n_tokens
        elif name == "dense_features.load_word_vectors":
            def obs(a, k, r):
                c["vector_loads"] += 1
                c["vector_paths"].add(str(Path(a[0]).resolve()))
        elif name == "reduce.fit_pca":
            def obs(a, k, r):
                c["pca_fits"] += 1
                c["pca_inputs"].add(_digest(a[0]))
                c["densified_mb"] += _sparse_mb(a[0])
        elif name == "reduce.transform_pca":
            def obs(a, k, r):
                c["densified_mb"] += _sparse_mb(a[0])
        elif name in LEARNER_METHODS:
            def obs(a, k, r):
                c["densified_mb"] += _sparse_mb(a[1])
        elif name == "serialize.save_model":
            def obs(a, k, r):
                c["saved_mb"] += Path(a[1]).stat().st_size / MB
        elif name == "serialize.load_model":
            def obs(a, k, r):
                c["loaded_mb"] += Path(a[0]).stat().st_size / MB
        else:
            return None
        return obs

    def install(self) -> None:
        import importlib

        for module_name, attr, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            name = f"{layer}.{attr}"
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, self._observer(name)))
        for module_name, cls_name, methods, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for method in methods:
                name = f"{layer}.{cls_name}.{method}"
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original, self._observer(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        names = [s[2] for s in spans]
        duration = [s[4] - s[3] for s in spans]
        self_ns = list(duration)
        for sid, parent, *_ in spans:
            if parent >= 0:
                self_ns[parent] -= duration[sid]

        def ancestors(sid):
            parent = spans[sid][1]
            while parent >= 0:
                yield parent
                parent = spans[parent][1]

        def self_s(*targets) -> float:
            return sum(self_ns[i] for i, n in enumerate(names) if n in targets) / 1e9

        def layer_self_s(layer) -> float:
            return sum(self_ns[i] for i, n in enumerate(names) if _layer(n) == layer) / 1e9

        def busy_s(*targets) -> float:
            """Wall time inside any of ``targets``, nested repeats counted once."""
            return sum(
                duration[i]
                for i, n in enumerate(names)
                if n in targets and not any(names[a] in targets for a in ancestors(i))
            ) / 1e9

        def count(name, parent_name=None) -> int:
            return sum(
                1
                for sid, parent, n, *_ in spans
                if n == name and (parent_name is None or (parent >= 0 and names[parent] == parent_name))
            )

        def ratio(part, whole, empty):
            return part / whole if whole else empty

        c = self.counts
        matrix_s = busy_s("runner.run_matrix")
        runner_in_matrix_s = sum(
            self_ns[i]
            for i, n in enumerate(names)
            if _layer(n) == "runner" and (n == "runner.run_matrix" or any(names[a] == "runner.run_matrix" for a in ancestors(i)))
        ) / 1e9
        request_ms = sorted(duration[i] / 1e6 for i, n in enumerate(names) if n == "runner.predict_file")
        return {
            "learn.tree.fit_self_s": self_s("learn.tree.DecisionTree.fit", "learn.tree.RandomForest.fit"),
            "learn.tree.trees_fitted": count("learn.tree.DecisionTree.fit"),
            "learn.tree.predict_s": busy_s("learn.tree.DecisionTree.predict", "learn.tree.RandomForest.predict"),
            "serialize.save_s": busy_s("serialize.save_model"),
            "serialize.saved_mb": c["saved_mb"],
            "serialize.load_s": busy_s("serialize.load_model"),
            "serialize.loaded_mb": c["loaded_mb"],
            "reduce.pca_fit_s": busy_s("reduce.fit_pca"),
            "reduce.pca_fit_useful_ratio": ratio(len(c["pca_inputs"]), c["pca_fits"], 1.0),
            "reduce.pca_transform_s": busy_s("reduce.transform_pca"),
            "reduce.normalize_s": busy_s("reduce.normalize_rows"),
            "reduce.densified_mb": c["densified_mb"],
            "dense_features.load_vectors_s": busy_s("dense_features.load_word_vectors"),
            "dense_features.vector_load_useful_ratio": ratio(len(c["vector_paths"]), c["vector_loads"], 1.0),
            "dense_features.embed_s": busy_s("dense_features.embed_documents"),
            "dense_features.oov_ratio": ratio(c["oov_tokens"], c["embedded_tokens"], 0.0),
            "tokenize.self_s": layer_self_s("tokenize"),
            "tokenize.tokens": c["tokens"],
            "sparse_features.self_s": layer_self_s("sparse_features"),
            "sparse_features.vocab": c["vocab"],
            "sparse_features.nnz": c["nnz"],
            "corpus.load_s": busy_s("corpus.load_split"),
            "learn.mlp.fit_s": busy_s("learn.mlp.Mlp.fit"),
            "learn.svm.fit_s": busy_s("learn.svm.LinearSvm.fit"),
            "learn.neighbors.predict_s": busy_s("learn.neighbors.KNearestNeighbors.predict"),
            "learn.search.s": busy_s("learn.search.grid_search_mlp"),
            "learn.search.grid_points": count("learn.mlp.Mlp.fit", "learn.search.grid_search_mlp"),
            "learn.voting.self_s": layer_self_s("learn.voting"),
            "pipeline.features_s": busy_s("pipeline.PipelineModel.features"),
            "pipeline.classify_s": busy_s("pipeline.PipelineModel.predict_texts")
            - busy_s("pipeline.PipelineModel.features"),
            "pipeline.write_predictions_s": busy_s("pipeline.write_predictions"),
            "evaluate.s": busy_s("evaluate.f1_macro", "evaluate.confusion_rates"),
            "runner.self_s": layer_self_s("runner"),
            "runner.cells": count("runner.run_cell"),
            "trace.matrix_s": matrix_s,
            "trace.attributed_frac": ratio(matrix_s - runner_in_matrix_s, matrix_s, 0.0),
            "trace.request_p50_ms": float(np.percentile(request_ms, 50)) if request_ms else 0.0,
        }


def _layer(name: str) -> str:
    """Span name minus its function part (and class part, for methods)."""
    head, _ = name.rsplit(".", 1)
    last = head.rsplit(".", 1)[-1]
    return head.rsplit(".", 1)[0] if last[:1].isupper() else head
