"""End-to-end acceptance checks.

Every test here re-derives its expected values through an independent route
(pure-python counting, eigendecomposition, finite differences, exhaustive
majorities) and prints a single PASS/FAIL line with the measured quantity,
echoed in the terminal summary.
"""

import json
import math
import time

import numpy as np
import pytest

import conftest
from polyemo.corpus import EMOTIONS, load_split
from polyemo.dense_features import (
    DEFAULT_PROMPT_TEMPLATE,
    FallbackPolicy,
    LlmBackendConfig,
    resolve_language,
)
from polyemo.evaluate import confusion_rates, f1_macro
from polyemo.learn import ClassifierSpec, fit
from polyemo.learn.mlp import gradient_check
from polyemo.pipeline import read_predictions
from polyemo.reduce import (
    ReductionConfig,
    fit_pca,
    inverse_transform_pca,
    transform_pca,
)
from polyemo.runner import enumerate_cells, parse_config, predict_file, run_matrix
from polyemo.sparse_features import fit_tfidf, transform_tfidf
from polyemo.synthetic import write_corpus, write_word_vectors


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_tfidf_weights_match_independent_formula(rng):
    """IDF values agree with a separately coded evaluation; rows are unit length."""
    started = time.perf_counter()
    worst_idf = 0.0
    worst_norm = 0.0
    for _ in range(100):
        n_docs = int(rng.integers(1, 21))
        alphabet = [f"w{k}" for k in range(int(rng.integers(1, 51)))]
        corpus = [
            [alphabet[k] for k in rng.integers(0, len(alphabet), size=rng.integers(1, 12))]
            for _ in range(n_docs)
        ]
        model = fit_tfidf(corpus)
        vocab = model.vocabulary
        for token, j in vocab.index.items():
            df = sum(1 for doc in corpus if token in doc)
            want = math.log1p(n_docs) - math.log1p(df) + 1.0
            worst_idf = max(worst_idf, abs(model.idf[j] - want))
        m = transform_tfidf(corpus, model)
        norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
        worst_norm = max(worst_norm, float(np.abs(norms - 1.0).max()))
    elapsed = time.perf_counter() - started
    ok = worst_idf <= 1e-12 and worst_norm <= 1e-9 and elapsed < 5.0
    report(
        "tf-idf weights vs independent formula",
        ok,
        f"100 corpora, max idf err {worst_idf:.2e}, max norm err {worst_norm:.2e}, {elapsed:.2f}s",
    )


FOUR_POINTS = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def eig_oracle(x):
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order].T


def test_pca_matches_eigendecomposition(rng):
    started = time.perf_counter()
    worst_axis = worst_ortho = worst_recon = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(d + 2, 13))
        x = rng.normal(size=(n, d))
        model = fit_pca(x, ReductionConfig(components="all"))
        _, want_axes = eig_oracle(x)
        for i in range(model.components.shape[0]):
            got, want = model.components[i], want_axes[i]
            worst_axis = max(
                worst_axis, min(np.abs(got - want).max(), np.abs(got + want).max())
            )
        gram = model.components @ model.components.T
        worst_ortho = max(worst_ortho, np.abs(gram - np.eye(len(gram))).max())
        recon = inverse_transform_pca(transform_pca(x, model), model)
        worst_recon = max(worst_recon, np.abs(recon - x).max())
    four = fit_pca(FOUR_POINTS, ReductionConfig(components="all"))
    ratio_err = float(np.abs(four.explained_variance_ratio - [0.8, 0.2]).max())
    elapsed = time.perf_counter() - started
    ok = (
        worst_axis <= 1e-6
        and worst_ortho <= 1e-8
        and worst_recon < 1e-8
        and ratio_err <= 1e-9
        and elapsed < 5.0
    )
    report(
        "pca vs covariance eigendecomposition",
        ok,
        f"50 matrices, axis err {worst_axis:.2e}, ortho {worst_ortho:.2e}, "
        f"recon {worst_recon:.2e}, 4-point ratio err {ratio_err:.2e}, {elapsed:.2f}s",
    )


def test_mlp_gradients_match_finite_differences(rng):
    started = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        d = int(rng.integers(2, 6))
        n_labels = int(rng.integers(1, 4))
        n = int(rng.integers(4, 13))
        hidden = [int(h) for h in rng.integers(2, 7, size=rng.integers(1, 3))]
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=(n, n_labels)).astype(np.int64)
        spec = ClassifierSpec(
            kind="mlp", hyperparameters={"hidden_sizes": hidden}, seed=trial
        )
        worst = max(worst, gradient_check(spec, x, y))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 10.0
    report(
        "mlp analytic vs numeric gradients",
        ok,
        f"10 networks, max relative err {worst:.2e}, {elapsed:.2f}s",
    )


def slow_f1_macro(gold, pred):
    n, m = gold.shape
    total = 0.0
    for j in range(m):
        tp = fp = fn = 0
        for i in range(n):
            if gold[i, j] == 1 and pred[i, j] == 1:
                tp += 1
            elif pred[i, j] == 1:
                fp += 1
            elif gold[i, j] == 1:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return total / m


def test_f1_macro_matches_exhaustive_scorer(rng):
    mismatches = 0
    zero_division_cases = 0
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 8))
        gold = rng.integers(0, 2, size=(n, m)).astype(np.int64)
        pred = rng.integers(0, 2, size=(n, m)).astype(np.int64)
        if rng.random() < 0.25:
            j = int(rng.integers(0, m))
            gold[:, j] = 0
            pred[:, j] = 0
        if np.any((gold.sum(axis=0) + pred.sum(axis=0)) == 0):
            zero_division_cases += 1
        if f1_macro(gold, pred) != slow_f1_macro(gold, pred):
            mismatches += 1
    ok = mismatches == 0 and zero_division_cases > 100
    report(
        "f1-macro vs exhaustive scorer",
        ok,
        f"1000 pairs, {mismatches} mismatches, {zero_division_cases} zero-division cases",
    )


def test_voting_equals_member_majority(rng):
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(1, 4))
        x = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=(n, m)).astype(np.int64)
        spec = ClassifierSpec(
            kind="voting",
            seed=trial,
            members=(
                ClassifierSpec(kind="knn", hyperparameters={"k": 3}),
                ClassifierSpec(kind="dt"),
                ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 3}),
            ),
        )
        ensemble = fit(spec, x, y)
        queries = np.vstack([x, rng.normal(size=(5, 3))])
        votes = sum(member.predict(queries) for member in ensemble.members)
        want = (2 * votes > len(ensemble.members)).astype(np.int64)
        if not np.array_equal(ensemble.predict(queries), want):
            mismatches += 1
    report(
        "voting vs elementwise member majority",
        mismatches == 0,
        f"200 datasets, {mismatches} mismatches",
    )


def test_confusion_rate_complements(rng):
    worst_exact = 0.0
    checked = 0
    for _ in range(50):
        n = int(rng.integers(1, 20))
        gold = rng.integers(0, 2, size=(n, 6)).astype(np.int64)
        pred = rng.integers(0, 2, size=(n, 6)).astype(np.int64)
        rates = confusion_rates(gold, pred)
        for j in range(6):
            if not math.isnan(rates.tp_rate[j]):
                assert rates.tp_rate[j] + rates.fn_rate[j] == 1.0
                checked += 1
            if not math.isnan(rates.tn_rate[j]):
                assert rates.tn_rate[j] + rates.fp_rate[j] == 1.0
                checked += 1
    # fixed reference pairs must obey the same identity to full precision
    for a, b in ((0.5625, 0.4375), (0.9405, 0.0595)):
        worst_exact = max(worst_exact, abs((a + b) - 1.0))
    ok = worst_exact <= 1e-12 and checked > 100
    report(
        "confusion-rate complements",
        ok,
        f"{checked} label rates exact, reference pair err {worst_exact:.2e}",
    )


@pytest.fixture(scope="module")
def acceptance_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    write_corpus(root / "data", seed=0, n_documents=600, language="syn")
    write_word_vectors(root / "syn.vec", seed=0, dimension=12)
    return root


def matrix_raw(corpus_root, out_dir):
    return {
        "data_dir": str(corpus_root / "data"),
        "languages": ["syn"],
        "representations": [
            {"name": "bow", "kind": "bow"},
            {"name": "tfidf", "kind": "tfidf"},
            {
                "name": "word-vectors",
                "kind": "word-vectors",
                "vectors": {"syn": str(corpus_root / "syn.vec")},
            },
        ],
        "classifiers": [
            {"name": "dt", "kind": "dt"},
            {"name": "voting", "kind": "voting"},
            {"name": "mlp", "kind": "mlp"},
        ],
        "reduction": {"pca": [True, False]},
        "seed": 0,
        "out_dir": str(out_dir),
    }


def test_separable_corpus_end_to_end(acceptance_corpus, tmp_path):
    """The full matrix trains and the clearly separable labels are learned."""
    cfg = parse_config(matrix_raw(acceptance_corpus, tmp_path / "out"), source="config")
    started = time.perf_counter()
    table = run_matrix(cfg)
    elapsed = time.perf_counter() - started
    scores = {
        (r.representation, r.classifier, r.pca): r.f1_macro for r in table.rows
    }
    mlp_floor = min(scores[("tfidf", "mlp", True)], scores[("tfidf", "mlp", False)])
    dt_floor = min(scores[("tfidf", "dt", True)], scores[("tfidf", "dt", False)])
    # every saved model, served back through predict, reproduces its cell
    test_csv = cfg.data_dir / "syn" / "test.csv"
    diverged = []
    for cell in enumerate_cells(cfg):
        served = tmp_path / "served" / f"{cell.name}.csv"
        predict_file(cfg.out_dir / "models" / f"{cell.name}.npz", test_csv, served)
        if served.read_bytes() != (cfg.out_dir / "predictions" / f"{cell.name}.csv").read_bytes():
            diverged.append(cell.name)
    ok = (
        table.all_ok
        and len(table) == 18
        and mlp_floor >= 0.90
        and dt_floor >= 0.70
        and elapsed < 120.0
        and not diverged
    )
    report(
        "separable-corpus end to end",
        ok,
        f"18 cells in {elapsed:.1f}s, tfidf+mlp >= {mlp_floor:.4f}, tfidf+dt >= {dt_floor:.4f}, "
        f"served models differing from their cells: {diverged or 'none'}",
    )


def test_equal_seeds_give_byte_identical_outputs(synthetic_dir, tmp_path):
    raw = {
        "data_dir": str(synthetic_dir / "data"),
        "languages": ["syn"],
        "representations": [{"name": "tfidf", "kind": "tfidf"}],
        "classifiers": [
            {"name": "rf", "kind": "rf", "hyperparameters": {"n_estimators": 7}},
            {
                "name": "mlp",
                "kind": "mlp",
                "hyperparameters": {"hidden_sizes": [8], "epochs": 30},
            },
        ],
        "reduction": {"pca": [True, False]},
        "seed": 11,
    }
    blobs = []
    for run in ("first", "second"):
        out = tmp_path / run
        raw["out_dir"] = str(out)
        run_matrix(parse_config(dict(raw), source="config"))
        files = [out / "report.csv"] + sorted((out / "predictions").glob("*.csv"))
        blobs.append([p.read_bytes() for p in files])
        n_files = len(files)
    ok = blobs[0] == blobs[1] and n_files == 5
    report(
        "equal seeds, byte-identical outputs",
        ok,
        f"report + {n_files - 1} prediction files compared byte for byte",
    )


class CannedTransport:
    def __init__(self, reply):
        self.reply = reply
        self.prompts = []

    def __call__(self, config, prompt):
        self.prompts.append(prompt)
        return self.reply


def test_language_fallback_resolves_and_caches(tmp_path):
    transport = CannedTransport("Of the listed options, Amharic is the closest relative.")
    policy = FallbackPolicy(
        supported_languages=("am", "en"),
        display_names={"am": "Amharic", "en": "English", "om": "Oromo"},
        llm_backend=LlmBackendConfig(endpoint="http://example.invalid/chat", model="tiny"),
        cache_path=str(tmp_path / "cache.tsv"),
    )
    code, how = resolve_language("om", policy, transport=transport)
    again, how_again = resolve_language("om", policy, transport=transport)
    want_prompt = DEFAULT_PROMPT_TEMPLATE.format(
        known_languages="Amharic, English", given_language="Oromo"
    )
    ok = (
        (code, how) == ("am", "llm")
        and (again, how_again) == ("am", "llm")
        and len(transport.prompts) == 1
        and transport.prompts[0] == want_prompt
        and "Amharic, English" in transport.prompts[0]
        and "Oromo" in transport.prompts[0]
        and (tmp_path / "cache.tsv").read_text(encoding="utf-8") == "om\tam\n"
    )
    report(
        "language fallback resolves and caches",
        ok,
        f"resolved om->{code} via {how}, {len(transport.prompts)} backend call(s)",
    )


def test_external_csv_integration_mode(tmp_path, rng):
    """User-supplied corpora in the documented CSV layout run end to end."""
    lang_dir = tmp_path / "data" / "ext"
    lang_dir.mkdir(parents=True)
    themes = {
        0: "furious rage boiling anger",
        1: "gross revolting disgust",
        2: "terrified scared fear",
        3: "delighted happy joy",
        4: "weeping mournful sadness",
        5: "astonished startled surprise",
    }
    for role, count in (("train", 48), ("dev", 12), ("test", 12)):
        with open(lang_dir / f"{role}.csv", "w", encoding="utf-8") as fh:
            fh.write("id,text," + ",".join(EMOTIONS) + "\n")
            for i in range(count):
                j = int(rng.integers(0, 6))
                labels = ["0"] * 6
                labels[j] = "1"
                fh.write(f"{role}{i},{themes[j]} sample {i}," + ",".join(labels) + "\n")
    raw = {
        "data_dir": str(tmp_path / "data"),
        "languages": ["ext"],
        "representations": [{"name": "tfidf", "kind": "tfidf"}],
        "classifiers": [{"name": "dt", "kind": "dt"}],
        "reduction": {"pca": [False]},
        "out_dir": str(tmp_path / "out"),
    }
    cfg = parse_config(raw, source="config")
    table = run_matrix(cfg)
    cell = enumerate_cells(cfg)[0]
    _, pred = read_predictions(tmp_path / "out" / "predictions" / f"{cell.name}.csv")
    gold = load_split(lang_dir / "test.csv", "test").label_matrix()
    layout_ok = (
        (tmp_path / "out" / "report.csv").is_file()
        and (tmp_path / "out" / "views" / "confusion" / f"{cell.name}.txt").is_file()
        and (tmp_path / "out" / "views" / "f1_by_classifier.pca-off.tfidf.csv").is_file()
    )
    ok = table.all_ok and layout_ok and f1_macro(gold, pred) == table.rows[0].f1_macro
    report(
        "external CSV corpora run end to end",
        ok,
        f"1 cell ok, emitted tables verified, f1 {table.rows[0].f1_macro:.4f}",
    )
