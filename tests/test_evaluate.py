"""Macro F1 and confusion rates against slow per-sample oracles."""

import time

import numpy as np
import pytest

from polyemo.errors import ShapeError
from polyemo.evaluate import (
    ConfusionRates,
    confusion_rates,
    f1_macro,
    format_confusion_table,
    format_rate,
    format_seconds,
    time_run,
)
from conftest import random_label_matrix


def f1_oracle(gold, pred):
    """Per-label F1 via explicit python loops, averaged unweighted."""
    n, m = gold.shape
    total = 0.0
    for j in range(m):
        tp = fp = fn = 0
        for i in range(n):
            if gold[i, j] == 1 and pred[i, j] == 1:
                tp += 1
            elif gold[i, j] == 0 and pred[i, j] == 1:
                fp += 1
            elif gold[i, j] == 1 and pred[i, j] == 0:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += f1
    return total / m


class TestF1Macro:
    def test_perfect_prediction(self, rng):
        y = random_label_matrix(rng, 10)
        assert f1_macro(y, y) == 1.0

    def test_hand_computed_example(self):
        # label 0: tp=2 fp=0 fn=0 -> f1 1; label 1: tp=1 fp=1 fn=0 -> f1 2/3
        gold = np.array([[1, 1], [1, 0]])
        pred = np.array([[1, 1], [1, 1]])
        assert f1_macro(gold, pred) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_zero_division_scores_zero(self):
        # no gold positives and no predicted positives: precision+recall = 0 -> 0
        gold = np.array([[0], [0]])
        pred = np.array([[0], [0]])
        assert f1_macro(gold, pred) == 0.0

    def test_all_wrong(self):
        gold = np.array([[1, 0], [1, 0]])
        pred = np.array([[0, 1], [0, 1]])
        assert f1_macro(gold, pred) == 0.0

    def test_matches_oracle_on_random_pairs(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(1, 7))
            gold = random_label_matrix(rng, n, m)
            pred = random_label_matrix(rng, n, m)
            assert f1_macro(gold, pred) == f1_oracle(gold, pred)

    def test_row_permutation_invariant(self, rng):
        gold = random_label_matrix(rng, 20)
        pred = random_label_matrix(rng, 20)
        perm = rng.permutation(20)
        assert f1_macro(gold, pred) == f1_macro(gold[perm], pred[perm])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            f1_macro(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_non_binary_rejected(self):
        with pytest.raises(ShapeError, match="binary"):
            f1_macro(np.array([[2]]), np.array([[1]]))


class TestConfusionRates:
    def test_hand_computed_rates(self):
        gold = np.array([[1], [1], [1], [0], [0]])
        pred = np.array([[1], [0], [1], [0], [1]])
        r = confusion_rates(gold, pred)
        assert r.tp_rate[0] == pytest.approx(2.0 / 3.0)
        assert r.fn_rate[0] == pytest.approx(1.0 / 3.0)
        assert r.tn_rate[0] == pytest.approx(0.5)
        assert r.fp_rate[0] == pytest.approx(0.5)

    def test_perfect_prediction(self, rng):
        y = random_label_matrix(rng, 10)
        y[:, 0] = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]  # both classes present
        r = confusion_rates(y, y)
        assert r.tp_rate[0] == 1.0
        assert r.fp_rate[0] == 0.0

    def test_complement_identities_exact(self, rng):
        """tp+fn = 1 and tn+fp = 1 exactly, not merely within tolerance."""
        for _ in range(50):
            gold = random_label_matrix(rng, int(rng.integers(1, 30)))
            pred = random_label_matrix(rng, gold.shape[0])
            r = confusion_rates(gold, pred)
            for j in range(len(r.labels)):
                if not np.isnan(r.tp_rate[j]):
                    assert r.tp_rate[j] + r.fn_rate[j] == 1.0
                if not np.isnan(r.tn_rate[j]):
                    assert r.tn_rate[j] + r.fp_rate[j] == 1.0

    def test_no_gold_positives_is_undefined(self):
        gold = np.array([[0], [0]])
        pred = np.array([[1], [0]])
        r = confusion_rates(gold, pred)
        assert np.isnan(r.tp_rate[0]) and np.isnan(r.fn_rate[0])
        assert not np.isnan(r.tn_rate[0])

    def test_no_gold_negatives_is_undefined(self):
        gold = np.array([[1], [1]])
        pred = np.array([[1], [0]])
        r = confusion_rates(gold, pred)
        assert np.isnan(r.tn_rate[0]) and np.isnan(r.fp_rate[0])
        assert r.tp_rate[0] == 0.5

    def test_default_label_names(self, rng):
        y = random_label_matrix(rng, 5)
        r = confusion_rates(y, y)
        assert r.labels == ("anger", "disgust", "fear", "joy", "sadness", "surprise")

    def test_generic_names_for_other_widths(self, rng):
        y = random_label_matrix(rng, 5, n_labels=3)
        assert confusion_rates(y, y).labels == ("label0", "label1", "label2")

    def test_row_order(self, rng):
        y = random_label_matrix(rng, 5)
        assert [name for name, _ in confusion_rates(y, y).as_rows()] == ["TP", "TN", "FP", "FN"]

    def test_reported_rate_pairs_sum_to_one(self):
        # four-decimal rate pairs like 0.5625/0.4375 and 0.9405/0.0595 stay complementary
        for a, b in ((0.5625, 0.4375), (0.9405, 0.0595), (1.0, 0.0)):
            assert abs((a + b) - 1.0) < 1e-12


class TestTiming:
    def test_noop_is_fast_and_nonnegative(self):
        _, seconds = time_run(lambda: None)
        assert 0.0 <= seconds < 0.01

    def test_sleep_measured(self):
        _, seconds = time_run(lambda: time.sleep(0.05))
        assert 0.045 <= seconds < 0.5

    def test_result_passthrough(self):
        result, _ = time_run(lambda: 41 + 1)
        assert result == 42


class TestFormatting:
    def test_format_seconds(self):
        assert format_seconds(0.0) == "0.0000"
        assert format_seconds(1.48941) == "1.4894"
        assert format_seconds(9.54e-7) == "9.54e-07"
        assert format_seconds(6e-4) == "0.0006"
        # below the display threshold the format switches rather than printing 0.0000
        assert "e" in format_seconds(4.9e-5)
        assert format_seconds(5.1e-5) == "0.0001"
        # negative values follow the same rule on their magnitude
        assert format_seconds(-0.5) == "-0.5000"
        assert format_seconds(-4e-5) == "-4.00e-05"

    def test_format_rate(self):
        assert format_rate(float("nan")) == "n/a"
        assert format_rate(0.5625) == "0.5625"

    def test_confusion_table_layout(self):
        r = ConfusionRates(
            labels=("anger", "joy"),
            tp_rate=np.array([0.5, np.nan]),
            tn_rate=np.array([1.0, 1.0]),
            fp_rate=np.array([0.0, 0.0]),
            fn_rate=np.array([0.5, np.nan]),
        )
        text = format_confusion_table(r)
        lines = text.splitlines()
        assert lines[0].split() == ["anger", "joy"]
        assert lines[1].startswith("TP")
        assert "n/a" in lines[1]
        assert text.endswith("\n")
