"""Run a full experiment matrix from a JSON config, then reuse a saved model.

The runner crosses language x representation x PCA x classifier, persists
every artifact (reports, predictions, models, per-cell records), and any
cell can be replayed later through the saved pipeline.
"""

import atexit
import json
import shutil
import tempfile
import warnings
from pathlib import Path

from polyemo.runner import enumerate_cells, load_config, predict_file, run_matrix
from polyemo.synthetic import write_corpus, write_word_vectors

root = Path(tempfile.mkdtemp(prefix="polyemo-demo-"))
atexit.register(shutil.rmtree, root)  # the demo leaves nothing behind
write_corpus(root / "data", seed=0, n_documents=300, language="syn")
write_word_vectors(root / "syn.vec", seed=0, dimension=12)

config = {
    "data_dir": "data",
    "languages": ["syn"],
    "representations": [
        {"name": "tfidf", "kind": "tfidf"},
        {"name": "word-vectors", "kind": "word-vectors", "vectors": {"syn": "syn.vec"}},
    ],
    "classifiers": [
        {"name": "dt", "kind": "dt"},
        {"name": "rf", "kind": "rf", "hyperparameters": {"n_estimators": 30}},
    ],
    "reduction": {"pca": [True, False]},
    "seed": 7,
    "out_dir": "out",
}
config_path = root / "config.json"
config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
print(f"config: {config_path}")

cfg = load_config(config_path)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # sparse features are densified for PCA
    table = run_matrix(cfg, log=print)
print(f"\n{len(table)} cells, all ok: {table.all_ok}")
print(f"{'representation':<14} {'pca':<4} {'classifier':<10} {'f1-macro':>9}")
for row in table.rows:
    print(f"{row.representation:<14} {'on' if row.pca else 'off':<4} "
          f"{row.classifier:<10} {row.f1_macro:>9.4f}")

print(f"\nreport:      {cfg.out_dir / 'report.csv'}")
print(f"pivot views: {sorted(p.name for p in (cfg.out_dir / 'views').glob('*.csv'))[:2]} ...")
print(f"timing:      {cfg.out_dir / 'timing' / 'cells.csv'}")

# Every cell leaves a reloadable pipeline behind; score fresh text with it.
cell = enumerate_cells(cfg)[0]
model_path = cfg.out_dir / "models" / f"{cell.name}.npz"
out_csv = root / "replayed.csv"
n = predict_file(model_path, cfg.data_dir / "syn" / "dev.csv", out_csv)
print(f"\nreplayed {cell.name} on the dev split: {n} predictions -> {out_csv}")
