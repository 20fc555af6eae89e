#!/usr/bin/env bash
# Smoke test of the installed `polyemo` command: a run, a resumed run in which
# every cell must be reused, an ablation that must write its paired tables,
# predictions with a saved tf-idf tree, a saved tf-idf random forest, a saved
# word-vector model (whose table keeps its byte planes and restores the rows a
# request reads, read from a vector file whose tokens are unsorted and hold one
# duplicate) and a saved word-vector kNN with PCA that must each equal the
# run's own prediction file, a run of the config saved with a
# byte-order mark that must exit 0 and write the same report, three malformed
# input files (a vector file, a vocabulary and a config that is not UTF-8), a
# zip archive as models of format 1 to 6 were, a saved model whose prefix is
# rewritten to claim model format version 7, and a saved model whose header is
# rewritten to give its classifier spec an unknown kind, that must each exit 2
# with an error naming the file (and, for the rewritten models, their version
# or the spec at fault), and no traceback; last, a re-run in which every pca-on cell fails must exit 1 and
# leave no pca-on model or prediction file, while the pca-off prediction files
# stay byte for byte as they were.
#
#   pip install -e .
#   bash scripts/cli_smoke.sh [work-dir]
#
# Without a work directory a temporary one is used and removed afterwards.
set -euo pipefail

if [ $# -ge 1 ]; then
  work="$1"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi

python - "$work" <<'PY'
import json
import sys
from pathlib import Path

from polyemo.synthetic import write_corpus, write_word_vectors

root = Path(sys.argv[1])
write_corpus(root / "data", seed=0, n_documents=120, language="syn")
write_word_vectors(root / "syn.vec", seed=0, dimension=12)
# the table sorts the file's tokens; a later duplicate's row replaces the earlier one
lines = (root / "syn.vec").read_text(encoding="utf-8").splitlines()
tokens = [line.split(" ", 1)[0] for line in lines[1:]]
assert tokens != sorted(tokens), "the vector file's tokens should be unsorted"
duplicate = lines[1].split(" ")
lines.append(" ".join([duplicate[0]] + [f"{-float(v):.6f}" for v in duplicate[1:]]))
(root / "syn.vec").write_text("\n".join(lines) + "\n", encoding="utf-8")
config = {
    "data_dir": "data",
    "languages": ["syn"],
    "representations": [
        {"name": "tfidf", "kind": "tfidf"},
        {"name": "wv", "kind": "word-vectors", "vectors": {"syn": "syn.vec"}},
    ],
    "classifiers": [
        {"name": "dt", "kind": "dt"},
        {"name": "knn", "kind": "knn"},
        {"name": "rf", "kind": "rf", "hyperparameters": {"n_estimators": 5}},
    ],
    "reduction": {"pca": [True, False]},
    "seed": 1,
    "out_dir": "out",
}
(root / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
PY

polyemo run --config "$work/config.json" | tee "$work/run.txt"
polyemo run --config "$work/config.json" --resume | tee "$work/resume.txt"

cells=$(grep -c '^\[[0-9]*/[0-9]*\] ' "$work/run.txt")
resumed=$(grep -c '^\[[0-9]*/[0-9]*\] .*: resumed$' "$work/resume.txt" || true)
progress=$(grep -c '^\[[0-9]*/[0-9]*\] ' "$work/resume.txt" || true)
if [ "$cells" -eq 0 ] || [ "$progress" -ne "$cells" ] || [ "$resumed" -ne "$cells" ]; then
  echo "the resumed run reused $resumed of $cells cells ($progress progress lines)" >&2
  exit 1
fi

polyemo ablate --config "$work/config.json" --out "$work/ablate" > "$work/ablate.txt" || {
  echo "polyemo ablate exited $?:" >&2
  cat "$work/ablate.txt" >&2
  exit 1
}
for table in views/ablation_f1.syn.csv views/ablation_f1.syn.txt timing/ablation_train_seconds.syn.csv; do
  if [ ! -s "$work/ablate/$table" ]; then
    echo "polyemo ablate wrote no $table" >&2
    exit 1
  fi
done

names=""
for pattern in 'syn__tfidf__*.npz' 'syn__tfidf__pca-off__rf.npz' 'syn__wv__*.npz' 'syn__wv__pca-on__knn.npz'; do
  model=$(ls "$work"/out/models/$pattern | head -n 1)
  name=$(basename "$model" .npz)
  polyemo predict --model "$model" --input "$work/data/syn/test.csv" --out "$work/predicted-$name.csv"
  cmp "$work/predicted-$name.csv" "$work/out/predictions/$name.csv"
  names="$names $name"
done

# a config saved with a byte-order mark runs as the config itself does
printf '\xef\xbb\xbf' > "$work/config-bom.json"
cat "$work/config.json" >> "$work/config-bom.json"
polyemo run --config "$work/config-bom.json" --out "$work/out-bom" > "$work/run-bom.txt" 2>&1 || {
  echo "polyemo run with a byte-order-marked config exited $?:" >&2
  cat "$work/run-bom.txt" >&2
  exit 1
}
cmp "$work/out/report.csv" "$work/out-bom/report.csv"

# expect_error WANT ARGS...: `polyemo ARGS...` exits 2, prints WANT and no traceback
expect_error() {
  local want="$1" status=0
  shift
  polyemo "$@" > "$work/error.txt" 2>&1 || status=$?
  if [ "$status" -ne 2 ] || ! grep -qF "$want" "$work/error.txt" || grep -q Traceback "$work/error.txt"; then
    echo "polyemo $* exited $status; expected 2 and an error naming '$want':" >&2
    cat "$work/error.txt" >&2
    exit 1
  fi
}
printf 'a 1 2\nb 3 4\nc 5 x\n' > "$work/bad.vec"
expect_error "$work/bad.vec: line 3: " inspect --vectors "$work/bad.vec"
printf 'a\t1\nb 2\n' > "$work/bad.tsv"
expect_error "$work/bad.tsv: line 2: " inspect --vocab "$work/bad.tsv"
printf '{"data_dir": "d\xff"}\n' > "$work/bad.json"
expect_error "$work/bad.json: not UTF-8 text" run --config "$work/bad.json"

# a model of an older format is refused by name, not read as this one: a zip
# archive, as formats 1 to 6 were, and a saved model whose prefix (the magic,
# then the little-endian uint32 format version) claims version 7; and a saved
# model whose classifier spec is of an unknown kind is refused as damaged: its
# raw-deflated JSON header is rewritten, and the prefix's header length, size
# and CRC-32 with it
python - "$work" <<'PY'
import json
import struct
import sys
import zipfile
import zlib
from pathlib import Path

root = Path(sys.argv[1])
with zipfile.ZipFile(root / "format-6.npz", "w", zipfile.ZIP_DEFLATED) as z:
    z.writestr("__meta__.npy", b"")
model = sorted((root / "out" / "models").glob("syn__tfidf__*.npz"))[0].read_bytes()
(root / "version-7.npz").write_bytes(model[:8] + (7).to_bytes(4, "little") + model[12:])
length = int.from_bytes(model[12:20], "little")
header = json.loads(zlib.decompress(model[32 : 32 + length], -15))
header["root"]["fields"]["classifier"]["fields"]["spec"]["fields"]["kind"] = "bogus"
text = json.dumps(header).encode("utf-8")
compressor = zlib.compressobj(wbits=-15)
packed = compressor.compress(text) + compressor.flush()
prefix = model[:12] + struct.pack("<QQI", len(packed), len(text), zlib.crc32(text))
(root / "bad-spec.npz").write_bytes(prefix + packed + model[32 + length :])
PY
expect_error "$work/format-6.npz: not a model file" \
  predict --model "$work/format-6.npz" --input "$work/data/syn/test.csv" --out "$work/format-6.csv"
expect_error "$work/version-7.npz: model format version 7 is not supported" \
  predict --model "$work/version-7.npz" --input "$work/data/syn/test.csv" --out "$work/version-7.csv"
expect_error "$work/bad-spec.npz: a ClassifierSpec node: unknown classifier kind 'bogus'" \
  predict --model "$work/bad-spec.npz" --input "$work/data/syn/test.csv" --out "$work/bad-spec.csv"

# a re-run into the same output directory whose PCA must keep more components
# than the train split has rows: every pca-on cell fails and keeps no model or
# prediction file from the first run, and the pca-off predictions stay as they were
mkdir -p "$work/pca-off"
cp "$work"/out/predictions/*__pca-off__*.csv "$work/pca-off/"
python - "$work" <<'PY'
import json
import sys
from pathlib import Path

root = Path(sys.argv[1])
config = json.loads((root / "config.json").read_text(encoding="utf-8"))
config["reduction"]["components"] = 1000000
(root / "config-pca-fails.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
PY
status=0
polyemo run --config "$work/config-pca-fails.json" > "$work/run-pca-fails.txt" 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
  echo "a run whose pca-on cells all fail exited $status; expected 1:" >&2
  cat "$work/run-pca-fails.txt" >&2
  exit 1
fi
left=$(ls "$work"/out/models/*__pca-on__* "$work"/out/predictions/*__pca-on__* 2>/dev/null || true)
if [ -n "$left" ]; then
  echo "failed pca-on cells left files of the earlier run:" >&2
  echo "$left" >&2
  exit 1
fi
kept=0
for copy in "$work"/pca-off/*.csv; do
  cmp "$copy" "$work/out/predictions/$(basename "$copy")"
  kept=$((kept + 1))
done

echo "cli smoke test passed: $cells cells resumed, ablation tables written,$names predict as in their run, a byte-order-marked config runs, bad inputs, format-7 models and a damaged spec exit 2, failed pca-on cells leave no files and $kept pca-off predictions stay"
