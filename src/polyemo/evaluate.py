"""Scoring and timing: macro F1, per-label confusion rates, wall-clock runs.

F1 uses the zero-division convention that a label with precision + recall
equal to zero scores 0, which keeps results comparable with the common
toolkit behavior. Confusion rates with an empty denominator (a label with no
gold positives, or none negatives) are reported as NaN and printed as
"n/a" rather than 0, since a 0 there would claim something the data cannot
support. Complement rates are derived by subtraction from 1 so the identity
tp_rate + fn_rate = 1 holds exactly in floating point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import EMOTIONS
from .errors import ShapeError


def _check_pair(gold, pred):
    gold = np.asarray(gold)
    pred = np.asarray(pred)
    if gold.shape != pred.shape or gold.ndim != 2:
        raise ShapeError(f"gold shape {gold.shape} and pred shape {pred.shape} must match")
    for name, m in (("gold", gold), ("pred", pred)):
        if not np.isin(m, (0, 1)).all():
            raise ShapeError(f"{name} matrix must be binary")
    return gold.astype(np.int64), pred.astype(np.int64)


def f1_macro(gold, pred) -> float:
    """Unweighted mean of per-label F1 over all label columns."""
    gold, pred = _check_pair(gold, pred)
    tp = ((gold == 1) & (pred == 1)).sum(axis=0).astype(float)
    fp = ((gold == 0) & (pred == 1)).sum(axis=0).astype(float)
    fn = ((gold == 1) & (pred == 0)).sum(axis=0).astype(float)
    f1 = np.zeros(gold.shape[1])
    for j in range(gold.shape[1]):
        precision = tp[j] / (tp[j] + fp[j]) if tp[j] + fp[j] > 0 else 0.0
        recall = tp[j] / (tp[j] + fn[j]) if tp[j] + fn[j] > 0 else 0.0
        if precision + recall > 0:
            f1[j] = 2.0 * precision * recall / (precision + recall)
    return float(f1.mean())


@dataclass(frozen=True)
class ConfusionRates:
    """Per-label tp/tn/fp/fn rates; NaN marks an undefined (empty-denominator) rate."""

    labels: tuple[str, ...]
    tp_rate: np.ndarray  # recall
    tn_rate: np.ndarray  # specificity
    fp_rate: np.ndarray
    fn_rate: np.ndarray

    def as_rows(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("TP", self.tp_rate),
            ("TN", self.tn_rate),
            ("FP", self.fp_rate),
            ("FN", self.fn_rate),
        ]


def confusion_rates(gold, pred, labels=EMOTIONS) -> ConfusionRates:
    gold, pred = _check_pair(gold, pred)
    if gold.shape[1] != len(labels):
        labels = tuple(f"label{j}" for j in range(gold.shape[1]))
    tp = ((gold == 1) & (pred == 1)).sum(axis=0).astype(float)
    fp = ((gold == 0) & (pred == 1)).sum(axis=0).astype(float)
    fn = ((gold == 1) & (pred == 0)).sum(axis=0).astype(float)
    tn = ((gold == 0) & (pred == 0)).sum(axis=0).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        tp_rate = np.where(tp + fn > 0, tp / (tp + fn), np.nan)
        tn_rate = np.where(tn + fp > 0, tn / (tn + fp), np.nan)
    fn_rate = 1.0 - tp_rate
    fp_rate = 1.0 - tn_rate
    return ConfusionRates(
        labels=tuple(labels),
        tp_rate=tp_rate,
        tn_rate=tn_rate,
        fp_rate=fp_rate,
        fn_rate=fn_rate,
    )


def time_run(action):
    """Run ``action()`` and return (result, seconds from the monotonic ns clock)."""
    start = time.perf_counter_ns()
    result = action()
    elapsed = (time.perf_counter_ns() - start) / 1e9
    return result, elapsed


@dataclass
class TimingRecord:
    """Wall-clock seconds; representation fitting is kept apart from training."""

    train_seconds: float = 0.0
    predict_seconds: float = 0.0
    representation_seconds: float = 0.0


@dataclass
class EvalReport:
    """One experiment cell's scores and timings."""

    language: str
    representation: str
    classifier: str
    pca: bool
    f1_macro: float
    rates: ConfusionRates | None = None
    timing: TimingRecord = field(default_factory=TimingRecord)
    status: str = "ok"
    error: str = ""


def format_seconds(v: float) -> str:
    """Four decimals, switching to scientific notation before a true value
    would print as an ambiguous 0.0000."""
    if v == 0.0:
        return "0.0000"
    if abs(v) < 0.00005:
        return f"{v:.2e}"
    return f"{v:.4f}"


def format_rate(v: float) -> str:
    return "n/a" if np.isnan(v) else f"{v:.4f}"


def format_confusion_table(rates: ConfusionRates) -> str:
    """Aligned text table: one column per label, one row per rate kind."""
    header = [""] + list(rates.labels)
    rows = [[name] + [format_rate(v) for v in values] for name, values in rates.as_rows()]
    return format_text_table([header] + rows)


def format_text_table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
