"""Exact bytes of the report tables, written from hand-built cell reports.

The reports hold fixed scores, timings and rates, one failed cell and one
scored cell whose F1 is undefined (an unlabeled test split), so every cell
text the writers can emit is pinned here.
"""

import math

import numpy as np
import pytest

from polyemo import runner
from polyemo.corpus import EMOTIONS
from polyemo.evaluate import ConfusionRates, EvalReport, TimingRecord
from polyemo.runner import (
    ClassifierConfig,
    ExperimentConfig,
    ReportTable,
    RepresentationConfig,
    enumerate_cells,
    run_ablation,
    write_reports,
)

FAILED, UNSCORED = 5, 10  # cell indices in nesting order

RATES = ConfusionRates(
    labels=EMOTIONS,
    tp_rate=np.array([0.5, 1.0, np.nan, 0.25, 0.0, 0.75]),
    tn_rate=np.array([0.875, np.nan, 1.0, 0.5, 0.625, 0.0]),
    fp_rate=np.array([0.125, np.nan, 0.0, 0.5, 0.375, 1.0]),
    fn_rate=np.array([0.5, 0.0, np.nan, 0.75, 1.0, 0.25]),
)


@pytest.fixture
def reported(tmp_path):
    cfg = ExperimentConfig(
        data_dir=tmp_path / "data",
        languages=("aa", "b b"),
        representations=(
            RepresentationConfig(name="bow", kind="bow"),
            RepresentationConfig(name="tf idf", kind="tfidf"),
        ),
        classifiers=(
            ClassifierConfig(name="dt", kind="dt"),
            ClassifierConfig(name="k nn", kind="knn"),
        ),
        pca_axis=(True, False),
        out_dir=tmp_path / "out",
    )
    cells = enumerate_cells(cfg)
    rows = []
    for i, cell in enumerate(cells):
        report = EvalReport(
            language=cell.language,
            representation=cell.representation.name,
            classifier=cell.classifier.name,
            pca=cell.pca,
            f1_macro=(i + 1) / 32,
            rates=RATES,
            timing=TimingRecord(
                train_seconds=0.5 + i / 4,
                predict_seconds=(i + 1) * 1e-5,
                representation_seconds=2.0 + i / 8,
            ),
        )
        if i == FAILED:
            report.status, report.error = "error", "RuntimeError: fit failed, twice"
            report.f1_macro, report.rates, report.timing = math.nan, None, TimingRecord()
        if i == UNSCORED:
            report.f1_macro, report.rates = math.nan, None
        rows.append(report)
    return cfg, cells, ReportTable(rows=rows)


def read(cfg, name):
    return (cfg.out_dir / name).read_bytes().decode("utf-8")


def test_matrix_report_bytes(reported):
    cfg, cells, table = reported
    write_reports(cfg, cells, table)
    assert read(cfg, "report.csv") == (
        "language,representation,pca,classifier,status,f1_macro,error\r\n"
        "aa,bow,on,dt,ok,0.03125,\r\n"
        "aa,bow,on,k nn,ok,0.0625,\r\n"
        "aa,bow,off,dt,ok,0.09375,\r\n"
        "aa,bow,off,k nn,ok,0.125,\r\n"
        "aa,tf idf,on,dt,ok,0.15625,\r\n"
        'aa,tf idf,on,k nn,error,,"RuntimeError: fit failed, twice"\r\n'
        "aa,tf idf,off,dt,ok,0.21875,\r\n"
        "aa,tf idf,off,k nn,ok,0.25,\r\n"
        "b b,bow,on,dt,ok,0.28125,\r\n"
        "b b,bow,on,k nn,ok,0.3125,\r\n"
        "b b,bow,off,dt,ok,n/a,\r\n"
        "b b,bow,off,k nn,ok,0.375,\r\n"
        "b b,tf idf,on,dt,ok,0.40625,\r\n"
        "b b,tf idf,on,k nn,ok,0.4375,\r\n"
        "b b,tf idf,off,dt,ok,0.46875,\r\n"
        "b b,tf idf,off,k nn,ok,0.5,\r\n"
    )
    assert read(cfg, "views/f1_by_representation.pca-on.k-nn.csv") == (
        "language,bow,tf idf\r\n"
        "aa,0.0625,error\r\n"
        "b b,0.3125,0.4375\r\n"
    )
    assert read(cfg, "views/f1_by_classifier.pca-off.bow.csv") == (
        "language,dt,k nn\r\n"
        "aa,0.09375,0.125\r\n"
        "b b,n/a,0.375\r\n"
    )
    assert read(cfg, "views/confusion/b-b__tf-idf__pca-on__k-nn.csv") == (
        "rate,anger,disgust,fear,joy,sadness,surprise\r\n"
        "TP,0.5,1.0,n/a,0.25,0.0,0.75\r\n"
        "TN,0.875,n/a,1.0,0.5,0.625,0.0\r\n"
        "FP,0.125,n/a,0.0,0.5,0.375,1.0\r\n"
        "FN,0.5,0.0,n/a,0.75,1.0,0.25\r\n"
    )
    assert read(cfg, "views/confusion/b-b__tf-idf__pca-on__k-nn.txt") == (
        "    anger   disgust  fear    joy     sadness  surprise\n"
        "TP  0.5000  1.0000   n/a     0.2500  0.0000   0.7500\n"
        "TN  0.8750  n/a      1.0000  0.5000  0.6250   0.0000\n"
        "FP  0.1250  n/a      0.0000  0.5000  0.3750   1.0000\n"
        "FN  0.5000  0.0000   n/a     0.7500  1.0000   0.2500\n"
    )
    # the failed and the unscored cell have no rates, so no confusion table
    confusion = sorted(p.name for p in (cfg.out_dir / "views" / "confusion").iterdir())
    assert len(confusion) == 2 * (len(cells) - 2)
    assert "aa__tf-idf__pca-on__k-nn.csv" not in confusion
    assert "b-b__bow__pca-off__dt.csv" not in confusion
    assert read(cfg, "timing/train_test.pca-on.tf-idf.csv") == (
        "language,dt_train,dt_test,k nn_train,k nn_test\r\n"
        "aa,1.5000,0.0001,error,error\r\n"
        "b b,3.5000,0.0001,3.7500,0.0001\r\n"
    )
    cells_csv = read(cfg, "timing/cells.csv").splitlines()
    assert cells_csv[:2] == [
        "language,representation,pca,classifier,representation_seconds,train_seconds,predict_seconds",
        "aa,bow,on,dt,2.0000,0.5000,1.00e-05",
    ]
    assert cells_csv[1 + FAILED] == "aa,tf idf,on,k nn,0.0000,0.0000,0.0000"
    assert len(cells_csv) == 1 + len(cells)
    written = sorted(str(p.relative_to(cfg.out_dir)) for p in cfg.out_dir.rglob("*.csv"))
    assert [p for p in written if not p.startswith("views/confusion/")] == [
        "report.csv",
        "timing/cells.csv",
        "timing/train_test.pca-off.bow.csv",
        "timing/train_test.pca-off.tf-idf.csv",
        "timing/train_test.pca-on.bow.csv",
        "timing/train_test.pca-on.tf-idf.csv",
        "views/f1_by_classifier.pca-off.bow.csv",
        "views/f1_by_classifier.pca-off.tf-idf.csv",
        "views/f1_by_classifier.pca-on.bow.csv",
        "views/f1_by_classifier.pca-on.tf-idf.csv",
        "views/f1_by_representation.pca-off.dt.csv",
        "views/f1_by_representation.pca-off.k-nn.csv",
        "views/f1_by_representation.pca-on.dt.csv",
        "views/f1_by_representation.pca-on.k-nn.csv",
    ]


def test_ablation_report_bytes(reported, monkeypatch):
    cfg, _, table = reported
    monkeypatch.setattr(runner, "run_matrix", lambda cfg, **options: table)
    on, off = run_ablation(cfg)
    assert [r.pca for r in on.rows] == [True] * 8 and [r.pca for r in off.rows] == [False] * 8
    assert read(cfg, "views/ablation_f1.aa.csv") == (
        "group,representation,dt,k nn\r\n"
        "w/o PCA,bow,0.09375,0.125\r\n"
        "w/o PCA,tf idf,0.21875,0.25\r\n"
        "w/ PCA,bow,0.03125,0.0625\r\n"
        "w/ PCA,tf idf,0.15625,n/a\r\n"
        "delta,bow,-0.0625,-0.0625\r\n"
        "delta,tf idf,-0.0625,n/a\r\n"
    )
    assert read(cfg, "views/ablation_f1.aa.txt") == (
        "                 dt       k nn\n"
        "w/o PCA  bow     0.0938   0.1250\n"
        "w/o PCA  tf idf  0.2188   0.2500\n"
        "w/ PCA   bow     0.0312   0.0625\n"
        "w/ PCA   tf idf  0.1562   n/a\n"
        "delta    bow     -0.0625  -0.0625\n"
        "delta    tf idf  -0.0625  n/a\n"
    )
    assert read(cfg, "views/ablation_f1.b-b.csv") == (
        "group,representation,dt,k nn\r\n"
        "w/o PCA,bow,n/a,0.375\r\n"
        "w/o PCA,tf idf,0.46875,0.5\r\n"
        "w/ PCA,bow,0.28125,0.3125\r\n"
        "w/ PCA,tf idf,0.40625,0.4375\r\n"
        "delta,bow,n/a,-0.0625\r\n"
        "delta,tf idf,-0.0625,-0.0625\r\n"
    )
    assert read(cfg, "timing/ablation_train_seconds.aa.csv") == (
        "group,representation,dt,k nn\r\n"
        "w/o PCA,bow,1.0,1.25\r\n"
        "w/o PCA,tf idf,2.0,2.25\r\n"
        "w/ PCA,bow,0.5,0.75\r\n"
        "w/ PCA,tf idf,1.5,n/a\r\n"
        "delta,bow,-0.5,-0.5\r\n"
        "delta,tf idf,-0.5,n/a\r\n"
    )
    # format_seconds prints every negative value in scientific notation
    assert read(cfg, "timing/ablation_train_seconds.aa.txt") == (
        "                 dt         k nn\n"
        "w/o PCA  bow     1.0000     1.2500\n"
        "w/o PCA  tf idf  2.0000     2.2500\n"
        "w/ PCA   bow     0.5000     0.7500\n"
        "w/ PCA   tf idf  1.5000     n/a\n"
        "delta    bow     -5.00e-01  -5.00e-01\n"
        "delta    tf idf  -5.00e-01  n/a\n"
    )
