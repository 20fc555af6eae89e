"""Command-line entry point: run, ablate, predict, inspect."""

from __future__ import annotations

import argparse
import sys

from .corpus import ROLES, load_split, summarize
from .dense_features import load_word_vectors
from .errors import PolyemoError
from .runner import load_config, predict_file, run_ablation, run_matrix
from .sparse_features import load_vocabulary_stats


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON experiment config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip cells whose completion records already exist in the output directory",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyemo",
        description="Multi-label emotion detection experiments over multilingual text corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the full experiment matrix")
    _add_run_flags(run_p)

    ablate_p = sub.add_parser(
        "ablate", help="run the matrix with PCA toggled on and off and emit paired tables"
    )
    _add_run_flags(ablate_p)

    predict_p = sub.add_parser("predict", help="label an id,text CSV with a saved model")
    predict_p.add_argument("--model", required=True, help="model .npz written by a run")
    predict_p.add_argument("--input", required=True, help="CSV with id and text columns")
    predict_p.add_argument("--out", required=True, help="output prediction CSV")

    inspect_p = sub.add_parser("inspect", help="summarize datasets, vector files, or vocabularies")
    target = inspect_p.add_mutually_exclusive_group(required=True)
    target.add_argument("--dataset", help="one split CSV to summarize")
    target.add_argument("--vectors", help="word-vector file to summarize")
    target.add_argument("--vocab", help="vocabulary TSV written by a run")
    inspect_p.add_argument(
        "--role", choices=ROLES, default=None, help="split role of --dataset (default: from filename)"
    )
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
    table = run_matrix(cfg, resume=args.resume, log=print)
    ok = sum(1 for r in table.rows if r.status == "ok")
    print(f"{ok}/{len(table)} cells ok; report: {cfg.out_dir / 'report.csv'}")
    return 0 if table.all_ok else 1


def _cmd_ablate(args) -> int:
    cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
    on, off = run_ablation(cfg, resume=args.resume, log=print)
    rows = on.rows + off.rows
    ok = sum(1 for r in rows if r.status == "ok")
    print(f"{ok}/{len(rows)} cells ok; paired tables under {cfg.out_dir / 'views'}")
    return 0 if ok == len(rows) else 1


def _cmd_predict(args) -> int:
    n = predict_file(args.model, args.input, args.out)
    print(f"wrote {n} predictions to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    if args.dataset:
        stem = args.dataset.rsplit("/", 1)[-1].split(".")[0]
        role = args.role or (stem if stem in ROLES else "test")
        split = load_split(args.dataset, role=role)
        print(f"language: {split.language}  role: {split.role}  documents: {len(split)}")
        if split.labeled:
            for s in summarize(split):
                print(
                    f"  {s.label:<9} positives {s.positives:>6}  "
                    f"negatives {s.negatives:>6}  rate {s.positive_fraction:.4f}"
                )
        else:
            print("  unlabeled")
    elif args.vectors:
        table = load_word_vectors(args.vectors)
        sample = ", ".join(table.tokens[:5])
        print(f"vectors: {len(table)}  dimension: {table.dimension}")
        print(f"  first tokens: {sample}")
    else:
        stats = load_vocabulary_stats(args.vocab)
        top = sorted(stats, key=lambda kv: (-kv[1], kv[0]))[:10]
        print(f"vocabulary size: {len(stats)}")
        for token, df in top:
            print(f"  {token}\t{df}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "ablate": _cmd_ablate,
        "predict": _cmd_predict,
        "inspect": _cmd_inspect,
    }[args.command]
    try:
        return handler(args)
    except PolyemoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
