"""Train every classifier family on one corpus and compare test F1.

All five base learners plus the voting ensemble run on identical tf-idf
features, so the differences below come from the models alone.
"""

import atexit
import shutil
import tempfile
import time
from pathlib import Path

from polyemo.corpus import load_split
from polyemo.evaluate import f1_macro
from polyemo.learn import ClassifierSpec, fit
from polyemo.sparse_features import fit_tfidf, transform_tfidf
from polyemo.synthetic import write_corpus
from polyemo.tokenize import Tokenizer, TokenizerSpec, tokenize_split

root = Path(tempfile.mkdtemp(prefix="polyemo-demo-"))
atexit.register(shutil.rmtree, root)  # the demo leaves nothing behind
lang_dir = write_corpus(root, seed=0, n_documents=600, language="syn")
splits = {role: load_split(lang_dir / f"{role}.csv", role) for role in ("train", "test")}
tokenizer = Tokenizer(TokenizerSpec(kind="unicode-words"))
tokens = {role: tokenize_split(s, tokenizer) for role, s in splits.items()}

features = fit_tfidf(tokens["train"])
x_train = transform_tfidf(tokens["train"], features)
x_test = transform_tfidf(tokens["test"], features)
y_train = splits["train"].label_matrix()
y_test = splits["test"].label_matrix()
print(f"train {x_train.shape}, test {x_test.shape}")

candidates = [
    ClassifierSpec(kind="dt"),
    ClassifierSpec(kind="knn", hyperparameters={"k": 5}),
    ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 30}),
    ClassifierSpec(kind="svm", hyperparameters={"epochs": 300}),
    ClassifierSpec(kind="mlp"),
    ClassifierSpec(
        kind="voting",
        members=(
            ClassifierSpec(kind="knn", hyperparameters={"k": 5}),
            ClassifierSpec(kind="dt"),
            ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 30}),
        ),
    ),
]

print(f"\n{'classifier':<10} {'f1-macro':>9} {'train s':>8} {'test s':>7}")
for spec in candidates:
    started = time.perf_counter()
    model = fit(spec, x_train, y_train)
    trained = time.perf_counter()
    pred = model.predict(x_test)
    done = time.perf_counter()
    print(
        f"{spec.kind:<10} {f1_macro(y_test, pred):>9.4f}"
        f" {trained - started:>8.3f} {done - trained:>7.3f}"
    )
