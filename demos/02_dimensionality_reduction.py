"""Shrink tf-idf features with PCA and watch the variance budget.

Fits the reducer three ways (all components, a fixed count, a variance
fraction) and confirms the projection is reversible at full rank.
"""

import atexit
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np

from polyemo.corpus import load_split
from polyemo.reduce import ReductionConfig, fit_pca, inverse_transform_pca, transform_pca
from polyemo.sparse_features import fit_tfidf, transform_tfidf
from polyemo.synthetic import write_corpus
from polyemo.tokenize import Tokenizer, TokenizerSpec, tokenize_split

root = Path(tempfile.mkdtemp(prefix="polyemo-demo-"))
atexit.register(shutil.rmtree, root)  # the demo leaves nothing behind
lang_dir = write_corpus(root, seed=0, n_documents=120, language="syn")
train = load_split(lang_dir / "train.csv", role="train")
tokens = tokenize_split(train, Tokenizer(TokenizerSpec(kind="unicode-words")))
model = fit_tfidf(tokens)
x = transform_tfidf(tokens, model)
print(f"tf-idf features: {x.shape[0]} x {x.shape[1]} sparse")

# Sparse input is densified with a warning; silence it here since the
# matrix is tiny.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    full = fit_pca(x, ReductionConfig(normalize=False, components="all"))
print(f"\nfull decomposition keeps {full.n_components} components")
cum = np.cumsum(full.explained_variance_ratio)
for k in (1, 2, 5, 10, 20):
    if k <= full.n_components:
        print(f"  top {k:>2} components explain {cum[k - 1]:6.1%} of the variance")

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    frac = fit_pca(x, ReductionConfig(normalize=False, components=0.90))
print(f"\nasking for 90% of the variance selects {frac.n_components} components")

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    fixed = fit_pca(x, ReductionConfig(normalize=False, components=10))
    z = transform_pca(x, fixed)
print(f"fixed k=10 projects to {z.shape[0]} x {z.shape[1]}")

# At full rank the round trip is lossless up to floating-point noise.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    recon = inverse_transform_pca(transform_pca(x, full), full)
err = np.abs(recon - np.asarray(x.todense())).max()
print(f"\nfull-rank reconstruction error: {err:.2e}")

# Components form an orthonormal basis: the Gram matrix is the identity.
gram = full.components @ full.components.T
print(f"orthonormality defect: {np.abs(gram - np.eye(len(gram))).max():.2e}")
