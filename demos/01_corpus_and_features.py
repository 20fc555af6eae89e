"""Load a corpus, tokenize it, and build sparse document features.

Walks the first pipeline stage end to end on the bundled synthetic corpus:
CSV splits -> token tuples -> bag-of-words counts -> tf-idf weights.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

from polyemo.corpus import load_split, summarize
from polyemo.sparse_features import fit_bow, fit_tfidf, transform_bow, transform_tfidf
from polyemo.synthetic import write_corpus
from polyemo.tokenize import Tokenizer, TokenizerSpec, tokenize_split

root = Path(tempfile.mkdtemp(prefix="polyemo-demo-"))
atexit.register(shutil.rmtree, root)  # the demo leaves nothing behind
lang_dir = write_corpus(root, seed=0, n_documents=120, language="syn")
print(f"wrote corpus under {lang_dir}")

train = load_split(lang_dir / "train.csv", role="train")
print(f"\n{train.language}/{train.role}: {len(train)} documents, labeled={train.labeled}")
for s in summarize(train):
    print(f"  {s.label:<9} positives {s.positives:>3}  rate {s.positive_fraction:.3f}")

# Tokenization lowercases first, then splits on letter/digit runs, so
# punctuation never reaches the vocabulary.
tokenizer = Tokenizer(TokenizerSpec(kind="unicode-words"))
tokens = tokenize_split(train, tokenizer)
print("\nfirst document:")
print(" ", train.documents[0].text[:70])
print("  ->", tokens[0].tokens[:8])

vocab = fit_bow(tokens)
counts = transform_bow(tokens, vocab)
print(f"\nbag of words: {counts.shape[0]} x {counts.shape[1]} sparse counts"
      f" ({counts.nnz} stored values)")
top = sorted(vocab.document_frequency.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
print("  most common tokens:", ", ".join(f"{t} (df={df})" for t, df in top))

model = fit_tfidf(tokens)
weighted = transform_tfidf(tokens, model)
norms = np.linalg.norm(weighted.toarray(), axis=1)
print(f"\ntf-idf rows are unit length: min norm {norms.min():.6f}, max {norms.max():.6f}")

# Rare tokens carry the largest idf; ubiquitous ones sink toward 1.
idf_order = np.argsort(model.idf)
names = model.vocabulary.tokens
print(f"  lowest idf:  {names[idf_order[0]]} ({model.idf[idf_order[0]]:.3f})")
print(f"  highest idf: {names[idf_order[-1]]} ({model.idf[idf_order[-1]]:.3f})")
