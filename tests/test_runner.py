"""The experiment runner: config validation, the cell matrix, reports, resume."""

import hashlib
import json
import math
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from polyemo import atomic, runner, serialize
from polyemo.corpus import load_split
from polyemo.errors import ConfigError, FormatError
from polyemo.evaluate import ConfusionRates, EvalReport, TimingRecord, f1_macro
from polyemo.pipeline import read_predictions
from polyemo.runner import (
    Cell,
    ClassifierConfig,
    RepresentationConfig,
    _read_cell_record,
    _write_cell_record,
    cell_seed,
    enumerate_cells,
    load_config,
    parse_config,
    predict_file,
    run_ablation,
    run_matrix,
    write_reports,
)
from polyemo.serialize import load_model
from polyemo.synthetic import synthetic_vocabulary, write_corpus, write_word_vectors


def base_raw(synthetic_dir, out_dir, **overrides):
    raw = {
        "data_dir": str(synthetic_dir / "data"),
        "languages": ["syn"],
        "representations": [{"name": "bow", "kind": "bow"}, {"name": "tfidf", "kind": "tfidf"}],
        "classifiers": [
            {"name": "dt", "kind": "dt"},
            {"name": "knn", "kind": "knn", "hyperparameters": {"k": 3}},
        ],
        "reduction": {"pca": [True, False]},
        "seed": 7,
        "out_dir": str(out_dir),
    }
    raw.update(overrides)
    return raw


def parse(raw):
    return parse_config(raw, source="config")


class TestParseConfig:
    def test_minimal_valid(self, synthetic_dir, tmp_path):
        cfg = parse(base_raw(synthetic_dir, tmp_path / "out"))
        assert cfg.languages == ("syn",)
        assert [r.name for r in cfg.representations] == ["bow", "tfidf"]
        assert cfg.pca_axis == (True, False)
        assert cfg.seed == 7

    def test_missing_required_key(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path)
        del raw["data_dir"]
        with pytest.raises(ConfigError, match="data_dir"):
            parse(raw)

    def test_bad_kind_reports_precise_path(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path)
        raw["representations"][0]["kind"] = "word2vec"
        with pytest.raises(ConfigError, match=r"config\.representations\[0\]\.kind"):
            parse(raw)

    def test_unknown_top_level_key(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path, typo_key=True)
        with pytest.raises(ConfigError, match="typo_key"):
            parse(raw)

    def test_duplicate_classifier_names(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path)
        raw["classifiers"] = [{"name": "a", "kind": "dt"}, {"name": "a", "kind": "knn"}]
        with pytest.raises(ConfigError, match="duplicate classifier"):
            parse(raw)

    def test_name_defaults_to_kind(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path)
        raw["classifiers"] = [{"kind": "dt"}]
        assert parse(raw).classifiers[0].name == "dt"

    def test_word_vectors_requires_map(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path)
        raw["representations"] = [{"name": "wv", "kind": "word-vectors"}]
        with pytest.raises(ConfigError, match="vectors"):
            parse(raw)

    def test_grid_only_for_mlp(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path)
        raw["classifiers"] = [{"name": "dt", "kind": "dt", "grid": {"max_depth": [1]}}]
        with pytest.raises(ConfigError, match="grid"):
            parse(raw)

    def test_members_only_for_voting(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path)
        raw["classifiers"] = [
            {"name": "dt", "kind": "dt", "members": [{"kind": "knn"}]}
        ]
        with pytest.raises(ConfigError, match="members"):
            parse(raw)

    def test_missing_data_files_listed(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path)
        raw["languages"] = ["syn", "nowhere"]
        with pytest.raises(ConfigError, match="nowhere"):
            parse(raw)

    def test_workers_floor(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path, workers=0)
        with pytest.raises(ConfigError, match="workers"):
            parse(raw)

    def test_parallel_workers_rejected(self, synthetic_dir, tmp_path):
        # cells run sequentially: only the single-worker setting is accepted
        parse(base_raw(synthetic_dir, tmp_path, workers=1))
        with pytest.raises(ConfigError, match="workers"):
            parse(base_raw(synthetic_dir, tmp_path, workers=2))

    @pytest.mark.parametrize(
        "axis, names",
        [
            ("languages", ["k a", "k-a"]),
            ("representations", [{"name": "tf idf", "kind": "tfidf"}, {"name": "tf/idf", "kind": "tfidf"}]),
            ("classifiers", [{"name": "k a", "kind": "knn"}, {"name": "k-a", "kind": "knn"}]),
        ],
    )
    def test_names_colliding_after_sanitizing(self, synthetic_dir, tmp_path, axis, names):
        raw = base_raw(synthetic_dir, tmp_path)
        raw[axis] = names
        with pytest.raises(ConfigError, match="both become"):
            parse(raw)

    def test_whole_valued_float_components_coerced(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path)
        raw["reduction"]["components"] = 2.0
        cfg = parse(raw)
        assert cfg.components == 2 and isinstance(cfg.components, int)

    def test_fraction_components_stay_float(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path)
        raw["reduction"]["components"] = 0.9
        assert parse(raw).components == 0.9

    def test_load_config_file_and_overrides(self, synthetic_dir, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_raw(synthetic_dir, tmp_path / "out")), encoding="utf-8")
        cfg = load_config(path, seed=99, out_dir=str(tmp_path / "other"))
        assert cfg.seed == 99
        assert cfg.out_dir == tmp_path / "other"

    def test_load_config_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_load_config_non_object_root(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_relative_paths_resolve_against_config_dir(self, synthetic_dir, tmp_path):
        cfg_dir = tmp_path / "nested"
        cfg_dir.mkdir()
        (cfg_dir / "data").symlink_to(synthetic_dir / "data")
        raw = base_raw(synthetic_dir, "out")
        raw["data_dir"] = "data"
        path = cfg_dir / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.data_dir == cfg_dir / "data"
        assert cfg.out_dir == cfg_dir / "out"


class TestCellEnumeration:
    def test_nesting_order_and_count(self, synthetic_dir, tmp_path):
        cfg = parse(base_raw(synthetic_dir, tmp_path))
        cells = enumerate_cells(cfg)
        assert len(cells) == 1 * 2 * 2 * 2
        # classifier varies fastest, then pca, then representation
        assert [c.classifier.name for c in cells[:4]] == ["dt", "knn", "dt", "knn"]
        assert [c.pca for c in cells[:4]] == [True, True, False, False]
        assert {c.representation.name for c in cells[:4]} == {"bow"}

    def test_cell_names_are_filesystem_safe(self):
        cell = Cell(
            language="pt/br",
            representation=RepresentationConfig(name="tf idf", kind="tfidf"),
            pca=True,
            classifier=ClassifierConfig(name="k*nn", kind="knn"),
        )
        assert cell.name == "pt-br__tf-idf__pca-on__k-nn"

    def test_cell_seed_is_stable_and_axis_sensitive(self):
        a = cell_seed(7, "syn", "bow", True, "dt")
        assert a == cell_seed(7, "syn", "bow", True, "dt")
        others = {
            cell_seed(8, "syn", "bow", True, "dt"),
            cell_seed(7, "ach", "bow", True, "dt"),
            cell_seed(7, "syn", "tfidf", True, "dt"),
            cell_seed(7, "syn", "bow", False, "dt"),
            cell_seed(7, "syn", "bow", True, "knn"),
        }
        assert a not in others
        assert len(others) == 5


def tree_digest(root, patterns):
    """Hash the byte content of every file under ``root`` matching ``patterns``."""
    h = hashlib.sha256()
    files = sorted(p for pat in patterns for p in root.glob(pat) if p.is_file())
    assert files, f"no files matched {patterns} under {root}"
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest(), files


DETERMINISTIC_PATTERNS = ("report.csv", "views/**/*", "predictions/*")


@pytest.fixture(scope="module")
def matrix_out(synthetic_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("matrix")
    cfg = parse(base_raw(synthetic_dir, out))
    table = run_matrix(cfg)
    return cfg, table


class TestRunMatrix:
    def test_row_count_and_status(self, matrix_out):
        cfg, table = matrix_out
        assert len(table) == 8
        assert table.all_ok

    def test_f1_bounds_and_timings(self, matrix_out):
        _, table = matrix_out
        for row in table.rows:
            assert 0.0 <= row.f1_macro <= 1.0
            assert row.timing.train_seconds > 0
            assert row.timing.predict_seconds > 0
            assert row.timing.representation_seconds > 0

    def test_master_report_layout(self, matrix_out):
        cfg, table = matrix_out
        lines = (cfg.out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "language,representation,pca,classifier,status,f1_macro,error"
        assert len(lines) == 1 + len(table)
        assert lines[1].startswith("syn,bow,on,dt,ok,")

    def test_report_carries_full_precision(self, matrix_out):
        cfg, table = matrix_out
        cell_f1 = repr(table.rows[0].f1_macro)
        first_row = (cfg.out_dir / "report.csv").read_text(encoding="utf-8").splitlines()[1]
        assert cell_f1 in first_row

    def test_f1_views_exist_with_language_rows(self, matrix_out):
        cfg, _ = matrix_out
        views = cfg.out_dir / "views"
        for pca_tag in ("pca-on", "pca-off"):
            for clf in ("dt", "knn"):
                path = views / f"f1_by_representation.{pca_tag}.{clf}.csv"
                lines = path.read_text(encoding="utf-8").splitlines()
                assert lines[0] == "language,bow,tfidf"
                assert lines[1].startswith("syn,")
            for rep in ("bow", "tfidf"):
                path = views / f"f1_by_classifier.{pca_tag}.{rep}.csv"
                assert path.read_text(encoding="utf-8").splitlines()[0] == "language,dt,knn"

    def test_confusion_views_per_cell(self, matrix_out):
        cfg, table = matrix_out
        conf = cfg.out_dir / "views" / "confusion"
        assert len(list(conf.glob("*.csv"))) == len(table)
        one = (conf / "syn__bow__pca-on__dt.csv").read_text(encoding="utf-8").splitlines()
        assert one[0] == "rate,anger,disgust,fear,joy,sadness,surprise"
        assert [ln.split(",")[0] for ln in one[1:]] == ["TP", "TN", "FP", "FN"]

    def test_prediction_files_scoreable(self, matrix_out):
        """Reported F1 re-validates exactly from the persisted predictions."""
        cfg, table = matrix_out
        gold = load_split(cfg.data_dir / "syn" / "test.csv", "test").label_matrix()
        for row, cell in zip(table.rows, enumerate_cells(cfg)):
            _, pred = read_predictions(cfg.out_dir / "predictions" / f"{cell.name}.csv")
            assert f1_macro(gold, pred) == row.f1_macro

    def test_models_reload_and_reproduce(self, matrix_out, tmp_path):
        """Every saved model labels the test split exactly as its cell did."""
        cfg, _ = matrix_out
        test_csv = cfg.data_dir / "syn" / "test.csv"
        for cell in enumerate_cells(cfg):
            served = tmp_path / f"{cell.name}.csv"
            predict_file(cfg.out_dir / "models" / f"{cell.name}.npz", test_csv, served)
            expected = (cfg.out_dir / "predictions" / f"{cell.name}.csv").read_bytes()
            assert served.read_bytes() == expected, cell.name

    def test_vocab_artifacts_written(self, matrix_out):
        cfg, _ = matrix_out
        assert (cfg.out_dir / "vocab" / "syn__bow.tsv").is_file()
        assert (cfg.out_dir / "vocab" / "syn__tfidf.tsv").is_file()

    def test_cell_records_written(self, matrix_out):
        cfg, table = matrix_out
        records = list((cfg.out_dir / "cells").glob("*.json"))
        assert len(records) == len(table)
        record = json.loads(records[0].read_text(encoding="utf-8"))
        assert record["status"] == "ok"

    def test_cell_records_carry_tree_sizes(self, matrix_out):
        cfg, _ = matrix_out
        for cell in enumerate_cells(cfg):
            record = json.loads((cfg.out_dir / "cells" / f"{cell.name}.json").read_text(encoding="utf-8"))
            model = load_model(cfg.out_dir / "models" / f"{cell.name}.npz").classifier
            if cell.classifier.kind == "dt":
                assert record["tree_nodes"] == model.feature.size > 1
                assert record["tree_depth"] == model.depth() > 0
            else:
                assert record["tree_nodes"] == 0
                assert record["tree_depth"] is None
        assert "tree" not in (cfg.out_dir / "report.csv").read_text(encoding="utf-8")

    def test_timing_views_written_single_worker(self, matrix_out):
        cfg, _ = matrix_out
        timing = cfg.out_dir / "timing"
        assert (timing / "cells.csv").is_file()
        head = (timing / "train_test.pca-on.bow.csv").read_text(encoding="utf-8").splitlines()[0]
        assert head == "language,dt_train,dt_test,knn_train,knn_test"


class TestDeterminism:
    def test_two_runs_byte_identical(self, synthetic_dir, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = parse(base_raw(synthetic_dir, out))
            run_matrix(cfg)
            digest, files = tree_digest(out, DETERMINISTIC_PATTERNS)
            digests.append(digest)
            assert len(files) > 10
        assert digests[0] == digests[1]

    def test_models_do_not_depend_on_where_the_inputs_sit(self, synthetic_dir, tmp_path):
        words = sorted({w for ws in synthetic_vocabulary().values() for w in ws})
        for tokenizer in ("unicode-words", "external-vocab"):
            models = []
            for name in ("one", "two"):
                root = tmp_path / tokenizer / name
                inputs = shutil.copytree(synthetic_dir, root / "inputs")
                (inputs / "vocab.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
                raw = base_raw(inputs, root / "out")
                raw["reduction"]["pca"] = [False]
                raw["representations"] = [
                    {"name": "wv", "kind": "word-vectors", "vectors": {"syn": str(inputs / "syn.vec")}}
                ]
                if tokenizer == "external-vocab":
                    raw["tokenizer"] = {"kind": tokenizer, "vocab_path": str(inputs / "vocab.txt")}
                run_matrix(parse(raw))
                files = sorted((root / "out" / "models").glob("*.npz"))
                models.append({p.name: p.read_bytes() for p in files})
            assert len(models[0]) == 2
            assert models[0] == models[1], tokenizer
            restored = load_model(root / "out" / "models" / next(iter(models[1])))
            assert restored.embeddings.source == "syn.vec"
            assert restored.tokenizer_spec.vocab_path == (
                "vocab.txt" if tokenizer == "external-vocab" else None
            )

    def test_seed_changes_outputs(self, synthetic_dir, tmp_path):
        digests = []
        for name, seed in (("a", 7), ("b", 8)):
            out = tmp_path / name
            raw = base_raw(synthetic_dir, out, seed=seed)
            # restrict to a seed-sensitive classifier; dt/knn are seed-free
            raw["classifiers"] = [
                {"name": "rf", "kind": "rf", "hyperparameters": {"n_estimators": 7}}
            ]
            raw["reduction"]["pca"] = [False]
            run_matrix(parse(raw))
            digests.append(tree_digest(out, ("predictions/*",))[0])
        assert digests[0] != digests[1]

    def test_cell_rows_independent_of_sibling_axes(self, synthetic_dir, tmp_path):
        """Dropping a classifier from the config leaves other cells' F1 unchanged."""
        raw_full = base_raw(synthetic_dir, tmp_path / "full")
        full = run_matrix(parse(raw_full))
        raw_mini = base_raw(synthetic_dir, tmp_path / "mini")
        raw_mini["classifiers"] = [{"name": "dt", "kind": "dt"}]
        mini = run_matrix(parse(raw_mini))
        full_dt = {
            (r.representation, r.pca): r.f1_macro
            for r in full.rows
            if r.classifier == "dt"
        }
        for r in mini.rows:
            assert full_dt[(r.representation, r.pca)] == r.f1_macro


class TestErrorIsolation:
    @pytest.fixture()
    def two_lang_dir(self, synthetic_dir, tmp_path):
        # second language that only the fallback machinery can serve
        data = tmp_path / "data"
        data.mkdir()
        (data / "syn").symlink_to(synthetic_dir / "data" / "syn")
        write_corpus(data.parent / "extra", seed=3, n_documents=60, language="zz")
        (data / "zz").symlink_to(data.parent / "extra" / "zz")
        return data

    def wv_raw(self, synthetic_dir, data_dir, out_dir, **extra):
        raw = {
            "data_dir": str(data_dir),
            "languages": ["syn", "zz"],
            "representations": [
                {
                    "name": "wv",
                    "kind": "word-vectors",
                    "vectors": {"syn": str(synthetic_dir / "syn.vec")},
                }
            ],
            "classifiers": [{"name": "dt", "kind": "dt"}],
            "reduction": {"pca": [False]},
            "seed": 7,
            "out_dir": str(out_dir),
        }
        raw.update(extra)
        return raw

    def test_unresolvable_language_fails_only_its_cells(self, synthetic_dir, two_lang_dir, tmp_path):
        cfg = parse(self.wv_raw(synthetic_dir, two_lang_dir, tmp_path / "out"))
        table = run_matrix(cfg)
        assert not table.all_ok
        by_lang = {r.language: r for r in table.rows}
        assert by_lang["syn"].status == "ok"
        assert by_lang["zz"].status == "error"
        assert "representation" in by_lang["zz"].error
        assert math.isnan(by_lang["zz"].f1_macro)
        # the master report carries the marker and an empty f1 column
        report = (cfg.out_dir / "report.csv").read_text(encoding="utf-8")
        assert "error" in report and "ResolutionError" in report

    def test_failed_pca_fails_only_its_arm(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path / "out")
        raw["representations"] = [
            {"name": "wv", "kind": "word-vectors", "vectors": {"syn": str(synthetic_dir / "syn.vec")}}
        ]
        raw["reduction"]["components"] = 50  # the 12-dim vectors cannot give 50
        table = run_matrix(parse(raw))
        for row in table.rows:
            if row.pca:
                assert row.status == "error"
                assert row.error == "ConfigError: components=50 out of range 1..12"
            else:
                assert row.status == "ok"

    def test_static_fallback_reuses_supported_vectors(self, synthetic_dir, two_lang_dir, tmp_path):
        raw = self.wv_raw(
            synthetic_dir,
            two_lang_dir,
            tmp_path / "out",
            fallback={"static_map": {"zz": "syn"}},
        )
        table = run_matrix(parse(raw))
        assert table.all_ok

    def test_llm_fallback_with_canned_transport(self, synthetic_dir, two_lang_dir, tmp_path):
        calls = []

        def transport(config, prompt):
            calls.append(prompt)
            return "Closest match: Synthetic."

        cache = tmp_path / "cache.tsv"
        raw = self.wv_raw(
            synthetic_dir,
            two_lang_dir,
            tmp_path / "out",
            fallback={
                "display_names": {"syn": "Synthetic", "zz": "Zetan"},
                "cache_path": str(cache),
                "llm": {"endpoint": "http://example.invalid/chat", "model": "tiny"},
            },
        )
        table = run_matrix(parse(raw), transport=transport)
        assert table.all_ok
        assert len(calls) == 1
        assert "Zetan" in calls[0] and "Synthetic" in calls[0]
        assert cache.read_text(encoding="utf-8") == "zz\tsyn\n"
        # a rerun resolves from the cache: the transport is never consulted
        table2 = run_matrix(parse(raw), transport=transport)
        assert table2.all_ok
        assert len(calls) == 1

    def test_resume_reruns_cells_whose_cached_fallback_changed(
        self, synthetic_dir, two_lang_dir, tmp_path
    ):
        """The cache decides which vectors zz reads, so an edited entry is new input."""
        calls = []

        def transport(config, prompt):
            calls.append(prompt)
            return "Closest match: Synthetic."

        other = write_word_vectors(tmp_path / "other.vec", seed=1, dimension=12)
        cache = tmp_path / "cache.tsv"
        raw = self.wv_raw(
            synthetic_dir,
            two_lang_dir,
            tmp_path / "out",
            fallback={
                "display_names": {"syn": "Synthetic", "oth": "Other"},
                "cache_path": str(cache),
                "llm": {"endpoint": "http://example.invalid/chat", "model": "tiny"},
            },
        )
        raw["representations"][0]["vectors"]["oth"] = str(other)

        def rerun_cells():
            lines = []
            table = run_matrix(parse(raw), resume=True, transport=transport, log=lines.append)
            assert table.all_ok
            return [line.split()[1][:-1] for line in lines if not line.endswith("resumed")]

        run_matrix(parse(raw), transport=transport)
        assert cache.read_text(encoding="utf-8") == "zz\tsyn\n"
        assert rerun_cells() == []
        cache.write_text("zz\toth\n", encoding="utf-8")
        assert rerun_cells() == ["zz__wv__pca-off__dt"]
        assert rerun_cells() == []
        assert len(calls) == 1

    def test_resume_without_cache_reuses_backend_resolved_cells(
        self, synthetic_dir, two_lang_dir, tmp_path
    ):
        """Each run asks the backend once for zz; the answer matches the records."""
        calls = []

        def transport(config, prompt):
            calls.append(prompt)
            return "Closest match: Synthetic."

        raw = self.wv_raw(
            synthetic_dir,
            two_lang_dir,
            tmp_path / "out",
            fallback={
                "display_names": {"syn": "Synthetic", "zz": "Zetan"},
                "llm": {"endpoint": "http://example.invalid/chat", "model": "tiny"},
            },
        )
        first = run_matrix(parse(raw), transport=transport)
        assert first.all_ok and len(calls) == 1
        lines = []
        resumed = run_matrix(parse(raw), resume=True, transport=transport, log=lines.append)
        assert lines == [
            "[1/2] syn__wv__pca-off__dt: resumed",
            "[2/2] zz__wv__pca-off__dt: resumed",
        ]
        assert [r.f1_macro for r in resumed.rows] == [r.f1_macro for r in first.rows]
        assert len(calls) == 2


class TestResume:
    def test_resume_trusts_existing_records(self, synthetic_dir, tmp_path):
        out = tmp_path / "out"
        raw = base_raw(synthetic_dir, out)
        raw["reduction"]["pca"] = [False]
        cfg = parse(raw)
        table = run_matrix(cfg)
        assert len(table) == 4 and table.all_ok

        records = sorted((out / "cells").glob("*.json"))
        # tamper one record: a resumed run must carry the sentinel through,
        # proving the cell was not re-executed
        tampered = json.loads(records[0].read_text(encoding="utf-8"))
        tampered["f1_macro"] = 0.123456
        records[0].write_text(json.dumps(tampered), encoding="utf-8")
        # delete another record: that cell alone is recomputed
        deleted_name = records[-1].stem
        records[-1].unlink()

        resumed = run_matrix(cfg, resume=True)
        by_name = {
            cell.name: row for cell, row in zip(enumerate_cells(cfg), resumed.rows)
        }
        assert by_name[records[0].stem].f1_macro == 0.123456
        recomputed = by_name[deleted_name]
        assert recomputed.status == "ok"
        assert recomputed.f1_macro == table.rows[-1].f1_macro

    def test_resume_reruns_unreadable_record(self, synthetic_dir, tmp_path):
        out = tmp_path / "out"
        raw = base_raw(synthetic_dir, out)
        raw["reduction"]["pca"] = [False]
        cfg = parse(raw)
        table = run_matrix(cfg)
        records = sorted((out / "cells").glob("*.json"))
        text = records[0].read_text(encoding="utf-8")
        records[0].write_text(text[: len(text) // 2], encoding="utf-8")  # truncated
        records[1].write_text("[]", encoding="utf-8")  # valid JSON, not a record
        resumed = run_matrix(cfg, resume=True)
        assert resumed.all_ok
        assert [r.f1_macro for r in resumed.rows] == [r.f1_macro for r in table.rows]
        assert json.loads(records[0].read_text(encoding="utf-8"))["status"] == "ok"
        assert not list((out / "cells").glob("*.tmp"))

    def test_resume_reruns_cell_whose_spec_changed(self, synthetic_dir, tmp_path):
        """Same classifier name, new hyperparameters: the old record is stale."""
        raw = base_raw(synthetic_dir, tmp_path / "out")
        raw["reduction"]["pca"] = [False]
        raw["classifiers"] = [{"name": "dt", "kind": "dt", "hyperparameters": {"max_depth": 1}}]
        shallow = run_matrix(parse(raw))
        raw["classifiers"][0]["hyperparameters"]["max_depth"] = None
        resumed = run_matrix(parse(raw), resume=True)
        fresh = run_matrix(parse(dict(raw, out_dir=str(tmp_path / "fresh"))))
        assert [r.f1_macro for r in resumed.rows] == [r.f1_macro for r in fresh.rows]
        assert [r.f1_macro for r in resumed.rows] != [r.f1_macro for r in shallow.rows]

    def test_resume_reruns_renamed_cell(self, synthetic_dir, tmp_path):
        """A rename that sanitizes to the same record file changes the cell seed."""
        raw = base_raw(synthetic_dir, tmp_path / "out")
        raw["representations"] = [{"name": "bow", "kind": "bow"}]
        raw["reduction"]["pca"] = [False]
        raw["classifiers"] = [{"name": "r f", "kind": "rf", "hyperparameters": {"n_estimators": 5}}]
        run_matrix(parse(raw))
        raw["classifiers"][0]["name"] = "r-f"
        lines = []
        resumed = run_matrix(parse(raw), resume=True, log=lines.append)
        fresh = run_matrix(parse(dict(raw, out_dir=str(tmp_path / "fresh"))))
        assert lines and not [line for line in lines if line.endswith("resumed")]
        assert [r.f1_macro for r in resumed.rows] == [r.f1_macro for r in fresh.rows]
        assert [r.classifier for r in resumed.rows] == ["r-f"]

    def test_resume_reruns_cell_whose_data_changed(self, tmp_path):
        data = tmp_path / "data"
        write_corpus(data, seed=0, n_documents=120, language="syn")
        raw = base_raw(tmp_path, tmp_path / "out")
        raw["reduction"]["pca"] = [False]
        run_matrix(parse(raw))
        write_corpus(data, seed=1, n_documents=120, language="syn")
        resumed = run_matrix(parse(raw), resume=True)
        fresh = run_matrix(parse(dict(raw, out_dir=str(tmp_path / "fresh"))))
        assert [r.f1_macro for r in resumed.rows] == [r.f1_macro for r in fresh.rows]

    def test_resume_reruns_cells_whose_vectors_changed(self, synthetic_dir, tmp_path):
        """A vector file rewritten in place under the same path is new input."""
        vectors = write_word_vectors(tmp_path / "es.vec", seed=0, dimension=12)
        raw = base_raw(synthetic_dir, tmp_path / "out")
        raw["reduction"]["pca"] = [False]
        raw["representations"] = [
            {"name": "bow", "kind": "bow"},
            {"name": "wv", "kind": "word-vectors", "vectors": {"syn": str(vectors)}},
        ]
        run_matrix(parse(raw))
        write_word_vectors(vectors, seed=1, dimension=12)
        lines = []
        resumed = run_matrix(parse(raw), resume=True, log=lines.append)
        rerun = sorted(line.split()[1][:-1] for line in lines if not line.endswith("resumed"))
        assert rerun == ["syn__wv__pca-off__dt", "syn__wv__pca-off__knn"]
        fresh = run_matrix(parse(dict(raw, out_dir=str(tmp_path / "fresh"))))
        assert [r.f1_macro for r in resumed.rows] == [r.f1_macro for r in fresh.rows]

    def test_resume_reruns_cells_whose_tokenizer_vocabulary_changed(self, synthetic_dir, tmp_path):
        words = sorted({w for ws in synthetic_vocabulary().values() for w in ws})
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(words) + "\n", encoding="utf-8")
        raw = base_raw(synthetic_dir, tmp_path / "out")
        raw["reduction"]["pca"] = [False]
        raw["tokenizer"] = {"kind": "external-vocab", "vocab_path": str(vocab)}
        run_matrix(parse(raw))
        vocab.write_text("\n".join(words[:5]) + "\n", encoding="utf-8")
        lines = []
        resumed = run_matrix(parse(raw), resume=True, log=lines.append)
        assert not [line for line in lines if line.endswith("resumed")]
        fresh = run_matrix(parse(dict(raw, out_dir=str(tmp_path / "fresh"))))
        assert [r.f1_macro for r in resumed.rows] == [r.f1_macro for r in fresh.rows]

    def test_resume_retries_failed_cell(self, synthetic_dir, tmp_path):
        out = tmp_path / "out"
        raw = base_raw(synthetic_dir, out)
        raw["reduction"]["pca"] = [False]
        cfg = parse(raw)
        table = run_matrix(cfg)
        record_path = sorted((out / "cells").glob("*.json"))[0]
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record.update(status="error", error="RuntimeError: transient", f1_macro=None)
        record_path.write_text(json.dumps(record), encoding="utf-8")
        resumed = run_matrix(cfg, resume=True)
        assert resumed.all_ok
        assert [r.f1_macro for r in resumed.rows] == [r.f1_macro for r in table.rows]

    def test_resumed_run_rewrites_reports_byte_identical(self, synthetic_dir, tmp_path):
        out = tmp_path / "out"
        cfg = parse(base_raw(synthetic_dir, out))
        run_matrix(cfg)
        patterns = ("report.csv", "views/**/*")
        digest, files = tree_digest(out, patterns)
        assert any("confusion" in p.parts for p in files)
        for p in files:
            p.unlink()
        lines = []
        run_matrix(cfg, resume=True, log=lines.append)
        assert len(lines) == 8 and all(line.endswith(": resumed") for line in lines)
        assert tree_digest(out, patterns)[0] == digest

    def test_cell_records_are_strict_json(self, synthetic_dir, tmp_path):
        """NaN scores and rates are written as null and read back as NaN."""

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        raw = base_raw(synthetic_dir, tmp_path / "out")
        raw["representations"] = [
            {"name": "wv", "kind": "word-vectors", "vectors": {"syn": str(synthetic_dir / "syn.vec")}}
        ]
        raw["reduction"]["components"] = 50  # the pca-on arm fails, its f1 is NaN
        cfg = parse(raw)
        table = run_matrix(cfg)
        assert {r.status for r in table.rows} == {"ok", "error"}
        keys = {
            "name", "language", "representation", "pca", "classifier", "status", "error",
            "f1_macro", "timing", "rates", "tree_nodes", "tree_depth", "fingerprint",
        }
        for path in (cfg.out_dir / "cells").glob("*.json"):
            record = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
            assert set(record) == keys
            assert (record["f1_macro"] is None) == (record["status"] == "error")

        cell = enumerate_cells(cfg)[0]
        rates = ConfusionRates(
            labels=("joy", "fear"),
            tp_rate=np.array([0.25, np.nan]),
            tn_rate=np.array([np.nan, 1.0]),
            fp_rate=np.array([0.75, np.nan]),
            fn_rate=np.array([np.nan, 0.0]),
        )
        report = EvalReport(
            language="syn", representation="wv", classifier="dt", pca=True,
            f1_macro=math.nan, rates=rates, timing=TimingRecord(1.5, 0.25, 2.0),
        )
        _write_cell_record(cfg, cell, report, "fingerprint")
        text = (cfg.out_dir / "cells" / f"{cell.name}.json").read_text(encoding="utf-8")
        record = json.loads(text, parse_constant=refuse)
        assert record["f1_macro"] is None and record["rates"]["tp_rate"] == [0.25, None]
        back = _read_cell_record(cfg, cell, "fingerprint")
        assert math.isnan(back.f1_macro) and back.timing == report.timing
        assert back.rates.labels == rates.labels
        for name, values in rates.as_rows():
            np.testing.assert_array_equal(dict(back.rates.as_rows())[name], values)
        assert _read_cell_record(cfg, cell, "another fingerprint") is None

    def test_without_resume_everything_recomputes(self, synthetic_dir, tmp_path):
        out = tmp_path / "out"
        raw = base_raw(synthetic_dir, out)
        raw["reduction"]["pca"] = [False]
        cfg = parse(raw)
        run_matrix(cfg)
        record = sorted((out / "cells").glob("*.json"))[0]
        tampered = json.loads(record.read_text(encoding="utf-8"))
        tampered["f1_macro"] = 0.5
        record.write_text(json.dumps(tampered), encoding="utf-8")
        fresh = run_matrix(cfg)
        assert all(r.f1_macro != 0.5 for r in fresh.rows)


class TestSharedVectorTable:
    """Groups that read one vector file run back to back and share one table."""

    @pytest.fixture()
    def es_gl_dir(self, synthetic_dir, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "es").symlink_to(synthetic_dir / "data" / "syn")
        write_corpus(tmp_path / "extra", seed=3, n_documents=60, language="gl")
        (data / "gl").symlink_to(tmp_path / "extra" / "gl")
        return data

    def raw(self, data_dir, out_dir, vectors):
        return {
            "data_dir": str(data_dir),
            "languages": ["es", "gl"],
            "representations": [
                {"name": "wv", "kind": "word-vectors", "vectors": vectors},
                {"name": "tfidf", "kind": "tfidf"},
            ],
            "classifiers": [{"name": "dt", "kind": "dt"}, {"name": "knn", "kind": "knn"}],
            "reduction": {"pca": [False]},
            "seed": 7,
            "out_dir": str(out_dir),
            "fallback": {"static_map": {"gl": "es"}},
        }

    @staticmethod
    def count_calls(monkeypatch):
        """Count vector-file loads, and deflates by the ``.npy`` digest of the array."""
        loads, deflates = [], Counter()
        load, deflate = runner.load_word_vectors, serialize._deflate

        def counting_load(path, language=""):
            loads.append((Path(path).name, language))
            return load(path, language)

        def counting_deflate(array):
            deflates[(array.ndim, serialize._npy_key(array))] += 1
            return deflate(array)

        monkeypatch.setattr(runner, "load_word_vectors", counting_load)
        monkeypatch.setattr(serialize, "_deflate", counting_deflate)
        return loads, deflates

    def test_one_load_and_one_deflate_of_the_table(self, synthetic_dir, es_gl_dir, tmp_path, monkeypatch):
        loads, deflates = self.count_calls(monkeypatch)
        vectors = {"es": str(synthetic_dir / "syn.vec")}
        lines = []
        table = run_matrix(parse(self.raw(es_gl_dir, tmp_path / "out", vectors)), log=lines.append)
        assert table.all_ok
        assert loads == [("syn.vec", "es")]
        planes = [n for (ndim, _), n in deflates.items() if ndim == 3]
        assert planes == [1]  # one table, deflated once for its four models
        groups = [line.split()[1].rsplit("__", 2)[0] for line in lines]
        assert list(dict.fromkeys(groups)) == ["es__wv", "gl__wv", "es__tfidf", "gl__tfidf"]
        for name in ("es__wv__pca-off__dt", "gl__wv__pca-off__knn"):
            assert load_model(tmp_path / "out" / "models" / f"{name}.npz").embeddings.language == "es"

    def test_outputs_equal_a_run_with_a_copy_per_language(self, synthetic_dir, es_gl_dir, tmp_path):
        shared = tmp_path / "shared"
        run_matrix(parse(self.raw(es_gl_dir, shared, {"es": str(synthetic_dir / "syn.vec")})))
        copy = tmp_path / "copy" / "syn.vec"
        copy.parent.mkdir()
        shutil.copyfile(synthetic_dir / "syn.vec", copy)
        apart = tmp_path / "apart"
        vectors = {"es": str(synthetic_dir / "syn.vec"), "gl": str(copy)}
        run_matrix(parse(self.raw(es_gl_dir, apart, vectors)))
        assert tree_digest(shared, DETERMINISTIC_PATTERNS)[0] == tree_digest(apart, DETERMINISTIC_PATTERNS)[0]

    def test_resume_with_only_the_borrowing_language_pending(
        self, synthetic_dir, es_gl_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        cfg = parse(self.raw(es_gl_dir, out, {"es": str(synthetic_dir / "syn.vec")}))
        first = run_matrix(cfg)
        models = {p.name: p.read_bytes() for p in (out / "models").glob("gl__wv__*.npz")}
        assert len(models) == 2
        for path in (out / "cells").glob("gl__wv__*.json"):
            path.unlink()
        loads, _ = self.count_calls(monkeypatch)
        lines = []
        resumed = run_matrix(cfg, resume=True, log=lines.append)
        assert loads == [("syn.vec", "es")]
        rerun = [line.split()[1][:-1] for line in lines if not line.endswith("resumed")]
        assert rerun == ["gl__wv__pca-off__dt", "gl__wv__pca-off__knn"]
        assert [r.f1_macro for r in resumed.rows] == [r.f1_macro for r in first.rows]
        assert {p.name: p.read_bytes() for p in (out / "models").glob("gl__wv__*.npz")} == models


class TestPrecomputed:
    def test_matrix_on_external_document_vectors(self, synthetic_dir, tmp_path, rng):
        emb_dir = tmp_path / "emb"
        emb_dir.mkdir()
        paths = {}
        for role in ("train", "dev", "test"):
            split = load_split(synthetic_dir / "data" / "syn" / f"{role}.csv", role)
            # informative vectors: the labels plus noise, so dt can learn them
            y = split.label_matrix().astype(float)
            m = np.hstack([y + rng.normal(0, 0.05, y.shape), rng.normal(size=(len(split), 2))])
            path = emb_dir / f"{role}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("id," + ",".join(f"v{j}" for j in range(m.shape[1])) + "\n")
                for doc_id, row in zip(split.ids(), m):
                    fh.write(doc_id + "," + ",".join(f"{v:.6f}" for v in row) + "\n")
            paths[role] = str(path)
        raw = {
            "data_dir": str(synthetic_dir / "data"),
            "languages": ["syn"],
            "representations": [
                {"name": "ext", "kind": "precomputed", "embeddings": {"syn": paths}}
            ],
            "classifiers": [{"name": "dt", "kind": "dt"}],
            "reduction": {"pca": [False]},
            "out_dir": str(tmp_path / "out"),
        }
        cfg = parse(raw)
        table = run_matrix(cfg)
        assert table.all_ok
        assert table.rows[0].f1_macro > 0.9

        # the stored pipeline knows it cannot embed raw text
        cell = enumerate_cells(cfg)[0]
        model = load_model(cfg.out_dir / "models" / f"{cell.name}.npz")
        with pytest.raises(ConfigError, match="cannot embed raw text"):
            model.predict_texts(["hello"])


class TestGridSearchInMatrix:
    def test_mlp_grid_cell_runs(self, synthetic_dir, tmp_path):
        raw = base_raw(synthetic_dir, tmp_path / "out")
        raw["representations"] = [{"name": "tfidf", "kind": "tfidf"}]
        raw["reduction"]["pca"] = [False]
        raw["classifiers"] = [
            {
                "name": "mlp",
                "kind": "mlp",
                "grid": {
                    "hidden_sizes": [[4], [8]],
                    "epochs": [15],
                    "batch_size": [16],
                },
            }
        ]
        table = run_matrix(parse(raw))
        assert table.all_ok
        assert 0.0 <= table.rows[0].f1_macro <= 1.0


@pytest.fixture(scope="module")
def ablation_out(synthetic_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation")
    raw = base_raw(synthetic_dir, out)
    del raw["reduction"]  # the ablation entry point forces both pca arms
    cfg = parse(raw)
    on, off = run_ablation(cfg)
    return cfg, on, off


class TestAblation:
    def test_tables_pair_up(self, ablation_out):
        _, on, off = ablation_out
        assert len(on) == len(off) == 4
        for a, b in zip(on.rows, off.rows):
            assert a.pca and not b.pca
            assert (a.language, a.representation, a.classifier) == (
                b.language,
                b.representation,
                b.classifier,
            )

    def test_f1_view_blocks_and_delta(self, ablation_out):
        cfg, on, off = ablation_out
        path = cfg.out_dir / "views" / "ablation_f1.syn.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "group,representation,dt,knn"
        groups = [ln.split(",")[0] for ln in lines[1:]]
        assert groups == ["w/o PCA"] * 2 + ["w/ PCA"] * 2 + ["delta"] * 2
        # the delta block equals the with-block minus the without-block
        rows = [ln.split(",") for ln in lines[1:]]
        for rep_i in range(2):
            without = [float(v) for v in rows[rep_i][2:]]
            including = [float(v) for v in rows[2 + rep_i][2:]]
            delta = [float(v) for v in rows[4 + rep_i][2:]]
            for w, n, d in zip(without, including, delta):
                assert abs((n - w) - d) < 1e-12

    def test_views_match_returned_tables(self, ablation_out):
        cfg, on, off = ablation_out
        path = cfg.out_dir / "views" / "ablation_f1.syn.csv"
        lines = [ln.split(",") for ln in path.read_text(encoding="utf-8").splitlines()[1:]]
        flat_off = {(r[1], name): float(v) for r in lines[:2] for name, v in zip(("dt", "knn"), r[2:])}
        for row in off.rows:
            assert flat_off[(row.representation, row.classifier)] == row.f1_macro

    def test_train_time_ablation_file_exists(self, ablation_out):
        cfg, _, _ = ablation_out
        assert (cfg.out_dir / "timing" / "ablation_train_seconds.syn.csv").is_file()
        text = (cfg.out_dir / "views" / "ablation_f1.syn.txt").read_text(encoding="utf-8")
        assert "w/o PCA" in text and "w/ PCA" in text


class TestAtomicReports:
    def small_config(self, synthetic_dir, out):
        raw = base_raw(synthetic_dir, out)
        raw["representations"] = [{"name": "tfidf", "kind": "tfidf"}]
        raw["classifiers"] = [{"name": "dt", "kind": "dt"}]
        return parse(raw)

    def test_failed_report_write_keeps_previous_report(self, synthetic_dir, tmp_path, fill_disk):
        cfg = self.small_config(synthetic_dir, tmp_path / "out")
        table = run_matrix(cfg)
        report = cfg.out_dir / "report.csv"
        before = report.read_bytes()
        fill_disk()
        with pytest.raises(OSError, match="no space"):
            write_reports(cfg, enumerate_cells(cfg), table)
        assert report.read_bytes() == before
        assert not list(cfg.out_dir.rglob("*.tmp"))

    def test_every_output_file_is_written_atomically(self, synthetic_dir, tmp_path, monkeypatch):
        opened = []

        def recording_open(path, *args, **kwargs):
            opened.append(Path(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(atomic, "open", recording_open, raising=False)
        cfg = self.small_config(synthetic_dir, tmp_path / "out")
        run_ablation(cfg)  # reports, views, timing, vocab, models, predictions, cell records
        written = {p for p in cfg.out_dir.rglob("*") if p.is_file()}
        assert len(written) > 10
        assert written == {p.with_name(p.name.removesuffix(".tmp")) for p in opened}


class TestPredictFile:
    def test_round_trip_matches_cell_score(self, synthetic_dir, tmp_path):
        out = tmp_path / "out"
        raw = base_raw(synthetic_dir, out)
        raw["representations"] = [{"name": "tfidf", "kind": "tfidf"}]
        raw["reduction"]["pca"] = [False]
        raw["classifiers"] = [{"name": "dt", "kind": "dt"}]
        cfg = parse(raw)
        table = run_matrix(cfg)
        cell = enumerate_cells(cfg)[0]
        test_csv = cfg.data_dir / "syn" / "test.csv"
        pred_csv = tmp_path / "fresh.csv"
        n = predict_file(out / "models" / f"{cell.name}.npz", test_csv, pred_csv)
        assert n == 24
        gold = load_split(test_csv, "test").label_matrix()
        _, pred = read_predictions(pred_csv)
        assert f1_macro(gold, pred) == table.rows[0].f1_macro

    def test_rejects_non_pipeline_file(self, tmp_path, rng):
        from polyemo.serialize import save_model
        from polyemo.learn import ClassifierSpec, fit

        x = rng.normal(size=(8, 2))
        y = rng.integers(0, 2, size=(8, 2)).astype(np.int64)
        path = tmp_path / "bare.npz"
        save_model(fit(ClassifierSpec(kind="dt"), x, y), path)
        src = tmp_path / "in.csv"
        src.write_text("id,text\na,hi\n", encoding="utf-8")
        with pytest.raises(FormatError, match="pipeline"):
            predict_file(path, src, tmp_path / "out.csv")


class TestClassifierSpecsAtLoad:
    """Every spec a cell will build is built once when the config loads."""

    @pytest.mark.parametrize(
        "classifier, message",
        [
            ({"kind": "knn", "hyperparameters": {"kk": 3}}, r"unknown hyperparameters for knn: \['kk'\]"),
            (
                {"kind": "voting", "members": [{"kind": "dt"}, {"kind": "svm", "hyperparameters": {"c": 1}}]},
                r"unknown hyperparameters for svm: \['c'\]",
            ),
            ({"kind": "mlp", "grid": {"epochs": [5], "hidden": [[4]]}}, r"unknown hyperparameters for mlp: \['hidden'\]"),
            ({"kind": "voting", "hyperparameters": {"k": 3}}, r"unknown hyperparameters for voting: \['k'\]"),
        ],
    )
    def test_bad_spec_fails_at_load(self, synthetic_dir, tmp_path, classifier, message):
        raw = base_raw(synthetic_dir, tmp_path / "out")
        raw["classifiers"] = [{"name": "dt", "kind": "dt"}, dict(classifier, name="bad")]
        with pytest.raises(ConfigError, match=r"^config: config\.classifiers\[1\]: " + message):
            parse(raw)
        assert not (tmp_path / "out").exists()

    def test_config_file_that_is_not_utf8(self, synthetic_dir, tmp_path):
        path = tmp_path / "config.json"
        text = json.dumps(base_raw(synthetic_dir, tmp_path / "out"))
        path.write_bytes(text.replace('"syn"', '"sy\\u00ffn"').encode("utf-8").replace(b"\\u00ff", b"\xff"))
        with pytest.raises(ConfigError, match=f"^{path}: not UTF-8 text"):
            load_config(path)


def write_precomputed(out_dir, data_dir, rng):
    """Random external document vectors for every split of ``data_dir``; returns their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for role in ("train", "dev", "test"):
        path = out_dir / f"{role}.csv"
        ids = load_split(data_dir / f"{role}.csv", role).ids()
        path.write_text(
            "".join(f"{i},{a:.6f},{b:.6f}\n" for i, (a, b) in zip(ids, rng.normal(size=(len(ids), 2)))),
            encoding="utf-8",
        )
        paths[role] = str(path)
    return paths


class TestRunnerPaths:
    def small_raw(self, synthetic_dir, out, classifiers):
        raw = base_raw(synthetic_dir, out, classifiers=classifiers)
        raw["representations"] = [{"name": "tfidf", "kind": "tfidf"}]
        raw["reduction"]["pca"] = [False]
        return raw

    def test_voting_with_explicit_members(self, synthetic_dir, tmp_path):
        out = tmp_path / "out"
        members = [
            {"kind": "knn", "hyperparameters": {"k": 3}},
            {"kind": "dt", "hyperparameters": {"max_depth": 2}},
            {"kind": "svm", "hyperparameters": {"epochs": 50}},
        ]
        raw = self.small_raw(synthetic_dir, out, [{"name": "vote", "kind": "voting", "members": members}])
        table = run_matrix(parse(raw))
        assert table.all_ok and 0.0 <= table.rows[0].f1_macro <= 1.0
        model = load_model(out / "models" / "syn__tfidf__pca-off__vote.npz").classifier
        assert [m.spec.kind for m in model.members] == ["knn", "dt", "svm"]
        assert model.members[1].spec.hyperparameters == {"max_depth": 2}

        def rerun(raw):
            lines = []
            run_matrix(parse(raw), resume=True, log=lines.append)
            return [line.rsplit(": ", 1)[1] for line in lines]

        assert rerun(raw) == ["resumed"]
        members[1]["hyperparameters"]["max_depth"] = 3
        assert rerun(raw) != ["resumed"]
        assert rerun(raw) == ["resumed"]

    def test_classifier_that_fails_to_fit_fails_only_its_cell(self, synthetic_dir, tmp_path):
        out = tmp_path / "out"
        classifiers = [{"name": "dt", "kind": "dt"}, {"name": "knn0", "kind": "knn", "hyperparameters": {"k": 0}}]
        table = run_matrix(parse(self.small_raw(synthetic_dir, out, classifiers)))
        dt, knn0 = table.rows
        assert dt.status == "ok"
        assert (knn0.status, knn0.error) == ("error", "ConfigError: k must be >= 1, got 0")
        assert math.isnan(knn0.f1_macro)
        assert not (out / "models" / "syn__tfidf__pca-off__knn0.npz").exists()
        record = json.loads((out / "cells" / "syn__tfidf__pca-off__knn0.json").read_text(encoding="utf-8"))
        assert record["status"] == "error"
        report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
        assert report[2] == 'syn,tfidf,off,knn0,error,,"ConfigError: k must be >= 1, got 0"'

    def test_precomputed_without_embeddings_for_a_language(self, synthetic_dir, tmp_path, rng):
        data = tmp_path / "data"
        data.mkdir()
        (data / "syn").symlink_to(synthetic_dir / "data" / "syn")
        write_corpus(tmp_path / "extra", seed=3, n_documents=60, language="zz")
        (data / "zz").symlink_to(tmp_path / "extra" / "zz")
        paths = write_precomputed(tmp_path / "emb", data / "syn", rng)
        raw = base_raw(synthetic_dir, tmp_path / "out", data_dir=str(data), languages=["syn", "zz"])
        raw["representations"] = [
            {"name": "ext", "kind": "precomputed", "embeddings": {"syn": paths}},
            {"name": "tfidf", "kind": "tfidf"},
        ]
        raw["reduction"]["pca"] = [False]
        table = run_matrix(parse(raw))
        failed = {(r.language, r.representation) for r in table.rows if r.status != "ok"}
        assert failed == {("zz", "ext")}
        for r in table.rows:
            if r.status != "ok":
                assert r.error == "representation: DataError: no precomputed embeddings configured for language 'zz'"

    def test_unlabeled_test_split(self, synthetic_dir, tmp_path):
        data = shutil.copytree(synthetic_dir / "data", tmp_path / "data")
        test_csv = data / "syn" / "test.csv"
        lines = test_csv.read_text(encoding="utf-8").splitlines()
        test_csv.write_text("".join(",".join(line.split(",")[:2]) + "\n" for line in lines), encoding="utf-8")
        out = tmp_path / "out"
        raw = base_raw(synthetic_dir, out, data_dir=str(data))
        raw["reduction"]["pca"] = [False]
        table = run_matrix(parse(raw))
        assert table.all_ok
        assert all(math.isnan(r.f1_macro) and r.rates is None for r in table.rows)
        report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
        assert report[1:] == [f"syn,{rep},off,{clf},ok,n/a," for rep in ("bow", "tfidf") for clf in ("dt", "knn")]
        views = out / "views"
        assert (views / "f1_by_representation.pca-off.dt.csv").read_text(encoding="utf-8") == "language,bow,tfidf\nsyn,n/a,n/a\n"
        assert (views / "f1_by_classifier.pca-off.bow.csv").read_text(encoding="utf-8") == "language,dt,knn\nsyn,n/a,n/a\n"
        assert not (views / "confusion").exists()
        assert len(list((out / "predictions").glob("*.csv"))) == 4
