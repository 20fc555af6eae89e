"""The benchmark's tracer still finds and wraps the learner methods it counts."""

import importlib.util
from pathlib import Path

import numpy as np

from polyemo.learn import ClassifierSpec, fit


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_forest_counts_its_trees_and_uninstall_restores():
    spans = load_spans()
    owners = [(importlib.import_module(m), attr) for m, attr, _ in spans.FUNCTIONS]
    for m, cls_name, methods, _ in spans.METHODS:
        cls = getattr(importlib.import_module(m), cls_name)
        owners += [(cls, method) for method in methods]
    before = [vars(owner)[attr] for owner, attr in owners]
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in zip(owners, before))
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(20, 3)), rng.integers(0, 2, size=(20, 2))
        fit(ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 5}), x, y)
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["learn.tree.trees_fitted"] == 5
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in zip(owners, before))
