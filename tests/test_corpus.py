"""CSV dataset loading, validation, and label summaries."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyemo.corpus import (
    EMOTIONS,
    DatasetSplit,
    LabeledDocument,
    LabelSummary,
    load_split,
    save_split,
    summarize,
)
from polyemo.errors import ConfigError, DataError, FormatError, SchemaError

HEADER = "id,text," + ",".join(EMOTIONS)


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadSplit:
    def test_single_row(self, tmp_path):
        """One labeled row maps header columns to the fixed label order."""
        p = write_csv(tmp_path / "train.csv", [HEADER, 'x1,"hello world",0,0,0,1,0,0'])
        split = load_split(p, role="train")
        assert len(split) == 1
        doc = split.documents[0]
        assert doc.id == "x1"
        assert doc.text == "hello world"
        assert doc.labels == (0, 0, 0, 1, 0, 0)

    def test_leading_byte_order_mark_keeps_the_id_column(self, tmp_path):
        p = tmp_path / "train.csv"
        p.write_text(HEADER + '\nx1,"hi",0,0,0,1,0,0\n', encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbfid,")
        split = load_split(p, role="train")
        assert [(d.id, d.text) for d in split.documents] == [("x1", "hi")]

    def test_language_from_parent_dir(self, tmp_path):
        d = tmp_path / "swa"
        d.mkdir()
        p = write_csv(d / "train.csv", [HEADER, "a,hi,0,0,0,0,0,0"])
        assert load_split(p, role="train").language == "swa"
        assert load_split(p, role="train", language="ach").language == "ach"

    def test_preserves_file_order(self, tmp_path):
        rows = [f"r{i},text {i},0,0,0,0,0,0" for i in range(20)]
        p = write_csv(tmp_path / "train.csv", [HEADER] + rows)
        split = load_split(p, role="train")
        assert split.ids() == [f"r{i}" for i in range(20)]

    def test_extra_columns_ignored(self, tmp_path):
        p = write_csv(
            tmp_path / "train.csv",
            ["id,text,extra," + ",".join(EMOTIONS), "a,hi,junk,1,0,0,0,0,0"],
        )
        assert load_split(p, role="train").documents[0].labels == (1, 0, 0, 0, 0, 0)

    def test_shuffled_header_order(self, tmp_path):
        cols = ["joy", "anger", "text", "surprise", "id", "disgust", "sadness", "fear"]
        p = write_csv(tmp_path / "train.csv", [",".join(cols), "1,0,hi,0,0,1,0,0"])
        doc = load_split(p, role="train").documents[0]
        # labels come back in canonical EMOTIONS order regardless of file order
        assert doc.labels == (0, 1, 0, 1, 0, 0)

    def test_non_binary_label_rejected(self, tmp_path):
        p = write_csv(tmp_path / "train.csv", [HEADER, "a,hi,2,0,0,0,0,0"])
        with pytest.raises(DataError, match="anger") as err:
            load_split(p, role="train")
        assert "line 2" in str(err.value)

    def test_missing_text_column(self, tmp_path):
        p = write_csv(tmp_path / "train.csv", ["id," + ",".join(EMOTIONS), "a,0,0,0,0,0,0"])
        with pytest.raises(SchemaError, match="text"):
            load_split(p, role="train")

    def test_incomplete_label_columns(self, tmp_path):
        p = write_csv(tmp_path / "train.csv", ["id,text,anger,joy", "a,hi,0,1"])
        with pytest.raises(SchemaError, match="disgust"):
            load_split(p, role="train")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "train.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            load_split(p, role="train")

    def test_missing_file_names_its_path(self, tmp_path):
        p = tmp_path / "test.csv"
        with pytest.raises(DataError, match=f"cannot read {p}: "):
            load_split(p, role="test")

    def test_not_utf8_names_its_line(self, tmp_path):
        p = tmp_path / "test.csv"
        p.write_bytes(b"id,text\nd1,fine\nd2,caf\xe9\n")
        with pytest.raises(FormatError, match=r"test\.csv: line 3: not UTF-8"):
            load_split(p, role="test")

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "train.csv", [HEADER])
        with pytest.raises(DataError, match="no data rows"):
            load_split(p, role="train")

    def test_duplicate_id(self, tmp_path):
        p = write_csv(tmp_path / "train.csv", [HEADER, "a,hi,0,0,0,0,0,0", "a,yo,0,0,0,0,0,0"])
        with pytest.raises(DataError, match="duplicate id"):
            load_split(p, role="train")

    def test_blank_text(self, tmp_path):
        p = write_csv(tmp_path / "train.csv", [HEADER, 'a,"   ",0,0,0,0,0,0'])
        with pytest.raises(DataError, match="empty text"):
            load_split(p, role="train")

    def test_unlabeled_test_split(self, tmp_path):
        p = write_csv(tmp_path / "test.csv", ["id,text", "a,hi", "b,yo"])
        split = load_split(p, role="test")
        assert not split.labeled
        assert all(d.labels is None for d in split.documents)

    def test_unlabeled_train_rejected(self, tmp_path):
        p = write_csv(tmp_path / "train.csv", ["id,text", "a,hi"])
        with pytest.raises(SchemaError, match="train"):
            load_split(p, role="train")

    def test_unknown_role(self, tmp_path):
        p = write_csv(tmp_path / "train.csv", [HEADER, "a,hi,0,0,0,0,0,0"])
        with pytest.raises(ConfigError, match="role"):
            load_split(p, role="eval")

    def test_short_row_rejected(self, tmp_path):
        p = write_csv(tmp_path / "train.csv", [HEADER, "a,hi,0,0"])
        with pytest.raises(DataError, match="line 2"):
            load_split(p, role="train")


class TestLabelMatrix:
    def test_values_and_dtype(self):
        split = DatasetSplit(
            language="xx",
            role="train",
            documents=(
                LabeledDocument("a", "t", (1, 0, 0, 0, 0, 1)),
                LabeledDocument("b", "t", (0, 0, 0, 0, 0, 0)),
            ),
        )
        y = split.label_matrix()
        assert y.dtype == np.int64
        assert y.tolist() == [[1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]]

    def test_unlabeled_split_rejected(self):
        split = DatasetSplit("xx", "test", (LabeledDocument("a", "t", None),))
        with pytest.raises(DataError):
            split.label_matrix()

    def test_all_zero_rows_preserved(self, tmp_path):
        # neutral documents stay in the dataset rather than being dropped
        p = write_csv(tmp_path / "train.csv", [HEADER, "a,hi,0,0,0,0,0,0"])
        split = load_split(p, role="train")
        assert split.label_matrix().sum() == 0


class TestRoundTrip:
    def test_labeled(self, tmp_path):
        split = DatasetSplit(
            language="xx",
            role="train",
            documents=(
                LabeledDocument("a", 'text with, "quotes"', (1, 0, 1, 0, 0, 0)),
                LabeledDocument("b", "line\nbreak", (0, 1, 0, 0, 0, 0)),
            ),
        )
        path = tmp_path / "out.csv"
        save_split(split, path)
        back = load_split(path, role="train", language="xx")
        assert back == split

    def test_unlabeled(self, tmp_path):
        split = DatasetSplit(
            "xx", "test", (LabeledDocument("a", "hi"), LabeledDocument("b", "yo"))
        )
        path = tmp_path / "out.csv"
        save_split(split, path)
        assert load_split(path, role="test", language="xx") == split

    def test_failed_save_keeps_previous_file(self, tmp_path, fill_disk):
        path = tmp_path / "out.csv"
        save_split(DatasetSplit("xx", "test", (LabeledDocument("a", "hi"),)), path)
        before = path.read_bytes()
        fill_disk()
        with pytest.raises(OSError, match="no space"):
            save_split(DatasetSplit("xx", "test", (LabeledDocument("b", "yo"),)), path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    @given(
        docs=st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(whitelist_categories=("L", "N", "P", "Z")),
                    min_size=1,
                    max_size=30,
                ).filter(lambda t: t.strip()),
                st.tuples(*[st.integers(0, 1) for _ in EMOTIONS]),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_save_load_identity(self, tmp_path_factory, docs):
        split = DatasetSplit(
            language="xx",
            role="train",
            documents=tuple(
                LabeledDocument(f"d{i}", text, labels) for i, (text, labels) in enumerate(docs)
            ),
        )
        path = tmp_path_factory.mktemp("rt") / "split.csv"
        save_split(split, path)
        assert load_split(path, role="train", language="xx") == split


class TestSummarize:
    def test_counts(self):
        labels = [
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
        ]
        split = DatasetSplit(
            "xx",
            "train",
            tuple(LabeledDocument(f"d{i}", "t", l) for i, l in enumerate(labels)),
        )
        rows = summarize(split)
        assert [r.label for r in rows] == list(EMOTIONS)
        joy = rows[EMOTIONS.index("joy")]
        assert (joy.positives, joy.negatives) == (2, 1)
        assert joy.positive_fraction == pytest.approx(2 / 3)

    def test_all_positive_fraction_is_one(self):
        split = DatasetSplit(
            "xx", "train", (LabeledDocument("a", "t", (1, 1, 1, 1, 1, 1)),)
        )
        for row in summarize(split):
            assert row.positive_fraction == 1.0
            assert row.negative_fraction == 0.0

    def test_fractions_are_exact_complements(self, rng):
        for _ in range(50):
            pos = int(rng.integers(0, 100))
            neg = int(rng.integers(1, 100))
            s = LabelSummary("anger", pos, neg)
            assert s.positive_fraction + s.negative_fraction == 1.0

    def test_imbalanced_counts(self):
        # 562 positives out of 2556 rows: ~22% positive, >78% negative
        s = LabelSummary("anger", 562, 2556 - 562)
        assert s.positive_fraction == pytest.approx(0.2199, abs=5e-5)
        assert s.negative_fraction > 0.78
