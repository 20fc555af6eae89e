"""Experiment matrix execution: config parsing, cell scheduling, report emission.

A run enumerates language x representation x pca x classifier cells and
executes them in one sequential loop. For each (language, representation)
pair the runner fits one ``PipelineModel`` featurizer on the train split and
represents every split with it; for each PCA arm it fits the reduction once
and shares that featurizer, and the reduced splits, across the arm's
classifiers. Every saved model is that same featurizer plus the cell's
classifier, so ``predict`` computes features exactly as training did.

Each cell that runs persists its predictions and a fitted model file. Every
cell that runs or fails ends in ``_end_cell``: its completion record is
written, a failed cell's prediction and model files (an earlier run's too)
are removed, and its ``[k/N]`` progress line is logged; a cell that
``--resume`` reuses is only logged. Report files that must reproduce
byte-for-byte under a fixed seed (the master report, the f1/confusion/ablation
views, predictions) never contain wall-clock values; timings go to a separate
out/timing/ directory.
Every report table but the per-cell confusion tables has one of two shapes:
one row per cell (its coordinates, then values), as in ``report.csv``, or
one row per language (its name, then values), as in the views' pivots.

Every cell gets its own seed derived by hashing the master seed together
with the cell coordinates, so editing one axis of the config cannot shift
the randomness of unrelated cells.

Scored F1 values are computed from the persisted prediction files, not from
the in-memory matrices, so the emitted numbers are guaranteed to agree with
what an external re-scoring of those files would produce.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import dense_features, serialize
from .atomic import atomic_open
from .corpus import ROLES, load_split
from .dense_features import (
    EmbeddingTable,
    FallbackPolicy,
    LlmBackendConfig,
    load_precomputed_embeddings,
    load_word_vectors,
)
from .errors import ConfigError, DataError, FormatError
from .evaluate import (
    ConfusionRates,
    EvalReport,
    TimingRecord,
    confusion_rates,
    f1_macro,
    format_confusion_table,
    format_seconds,
    format_text_table,
    time_run,
)
from .learn import CLASSIFIER_KINDS, ClassifierSpec, default_voting_spec, enumerate_grid
from .learn import DecisionTree, RandomForest, fit, grid_search_mlp
from .pipeline import PipelineModel, read_predictions, write_predictions
from .reduce import ReductionConfig, fit_pca
from .sparse_features import TfidfModel, fit_bow, fit_tfidf, save_vocabulary
from .serialize import load_model, save_model
from .tokenize import TOKENIZER_KINDS, Tokenizer, TokenizerSpec, tokenize_split

# Not called here (PipelineModel applies them); kept importable under
# polyemo.runner because the tracing benchmark (perfbench/spans.py) wraps these names.
from .dense_features import embed_documents  # noqa: F401
from .reduce import normalize_rows, transform_pca  # noqa: F401
from .sparse_features import transform_bow, transform_tfidf  # noqa: F401

REPRESENTATION_KINDS = ("bow", "tfidf", "word-vectors", "precomputed")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["data_dir", "languages", "representations", "classifiers"],
    "additionalProperties": False,
    "properties": {
        "data_dir": {"type": "string"},
        "languages": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string", "minLength": 1},
        },
        "representations": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["kind"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "kind": {"enum": list(REPRESENTATION_KINDS)},
                    "vectors": {
                        "type": "object",
                        "additionalProperties": {"type": "string"},
                    },
                    "embeddings": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "object",
                            "required": ["train", "dev", "test"],
                            "additionalProperties": False,
                            "properties": {
                                "train": {"type": "string"},
                                "dev": {"type": "string"},
                                "test": {"type": "string"},
                            },
                        },
                    },
                },
            },
        },
        "classifiers": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["kind"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "kind": {"enum": list(CLASSIFIER_KINDS)},
                    "hyperparameters": {"type": "object"},
                    "members": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["kind"],
                            "additionalProperties": False,
                            "properties": {
                                "kind": {"enum": [k for k in CLASSIFIER_KINDS if k != "voting"]},
                                "hyperparameters": {"type": "object"},
                            },
                        },
                    },
                    "grid": {
                        "type": "object",
                        "minProperties": 1,
                        "additionalProperties": {"type": "array", "minItems": 1},
                    },
                },
            },
        },
        "reduction": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "normalize": {"type": "boolean"},
                "components": {
                    "anyOf": [
                        {"const": "all"},
                        {"type": "integer", "minimum": 1},
                        {
                            "type": "number",
                            "exclusiveMinimum": 0,
                            "exclusiveMaximum": 1,
                        },
                    ]
                },
                "pca": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "boolean"},
                },
            },
        },
        "tokenizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(TOKENIZER_KINDS)},
                "lowercase": {"type": "boolean"},
                "vocab_path": {"type": "string"},
            },
        },
        "fallback": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "static_map": {
                    "type": "object",
                    "additionalProperties": {"type": "string"},
                },
                "display_names": {
                    "type": "object",
                    "additionalProperties": {"type": "string"},
                },
                "cache_path": {"type": "string"},
                "llm": {
                    "type": "object",
                    "required": ["endpoint", "model"],
                    "additionalProperties": False,
                    "properties": {
                        "endpoint": {"type": "string"},
                        "model": {"type": "string"},
                        "timeout_seconds": {"type": "number", "exclusiveMinimum": 0},
                        "prompt_template": {"type": "string"},
                    },
                },
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
        # cells run sequentially; configs that pin the former worker count
        # to 1 stay valid, any other value is rejected
        "workers": {"const": 1},
    },
}


@dataclass(frozen=True)
class RepresentationConfig:
    name: str
    kind: str
    vector_paths: dict = field(default_factory=dict)  # lang -> vector file
    split_paths: dict = field(default_factory=dict)  # lang -> {role: file}


@dataclass(frozen=True)
class ClassifierConfig:
    name: str
    kind: str
    hyperparameters: dict = field(default_factory=dict)
    members: tuple = ()  # (kind, hyperparameters) pairs for voting
    grid: dict | None = None

    def spec(self, seed: int) -> ClassifierSpec:
        """The spec to fit; a voting classifier without ``members`` is the stock ensemble."""
        hp = self.hyperparameters
        if self.kind == "voting" and not self.members:
            return replace(default_voting_spec(seed), hyperparameters=hp)
        members = tuple(ClassifierSpec(kind=k, hyperparameters=m, seed=seed) for k, m in self.members)
        return ClassifierSpec(kind=self.kind, hyperparameters=hp, seed=seed, members=members)


@dataclass
class ExperimentConfig:
    data_dir: Path
    languages: tuple[str, ...]
    representations: tuple[RepresentationConfig, ...]
    classifiers: tuple[ClassifierConfig, ...]
    pca_axis: tuple[bool, ...] = (True,)
    normalize: bool = True
    components: object = "all"
    tokenizer: TokenizerSpec = TokenizerSpec()
    static_map: dict = field(default_factory=dict)
    display_names: dict = field(default_factory=dict)
    cache_path: str | None = None
    llm_backend: LlmBackendConfig | None = None
    seed: int = 0
    out_dir: Path = Path("out")


@dataclass
class ReportTable:
    rows: list[EvalReport]

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def all_ok(self) -> bool:
        return all(r.status == "ok" for r in self.rows)


def _schema_errors(raw, source: str) -> None:
    import jsonschema

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if not errors:
        return
    first = errors[0]
    loc = "config"
    for p in first.absolute_path:
        loc += f"[{p}]" if isinstance(p, int) else f".{p}"
    more = "" if len(errors) == 1 else f" ({len(errors) - 1} further schema errors)"
    raise ConfigError(f"{source}: {loc}: {first.message}{more}")


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _unique_names(names, what, source):
    """Names must differ, also once sanitized into cell and artifact file names."""
    seen: dict[str, str] = {}
    for n in names:
        key = _sanitize(n)
        if seen.get(key) == n:
            raise ConfigError(f"{source}: duplicate {what} name {n!r}")
        if key in seen:
            raise ConfigError(
                f"{source}: {what} names {seen[key]!r} and {n!r} both become "
                f"{key!r} in cell and file names"
            )
        seen[key] = n


def parse_config(raw: dict, source: str = "config", base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a raw JSON config and build an ExperimentConfig.

    Relative paths are resolved against ``base_dir`` (the config file's
    directory) when given. Referenced data and vector files must exist.
    """
    _schema_errors(raw, source)
    base = base_dir or Path(".")

    def resolve(p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else base / path

    languages = tuple(raw["languages"])
    _unique_names(languages, "language", source)

    representations = []
    for i, r in enumerate(raw["representations"]):
        kind = r["kind"]
        name = r.get("name", kind)
        if kind == "word-vectors":
            if "vectors" not in r or not r["vectors"]:
                raise ConfigError(
                    f"{source}: config.representations[{i}]: word-vectors requires "
                    "a non-empty 'vectors' language-to-file map"
                )
            paths = {lang: str(resolve(p)) for lang, p in r["vectors"].items()}
            representations.append(
                RepresentationConfig(name=name, kind=kind, vector_paths=paths)
            )
        elif kind == "precomputed":
            if "embeddings" not in r or not r["embeddings"]:
                raise ConfigError(
                    f"{source}: config.representations[{i}]: precomputed requires "
                    "a non-empty 'embeddings' map of per-split files"
                )
            split_paths = {
                lang: {role: str(resolve(p)) for role, p in roles.items()}
                for lang, roles in r["embeddings"].items()
            }
            representations.append(
                RepresentationConfig(name=name, kind=kind, split_paths=split_paths)
            )
        else:
            for key in ("vectors", "embeddings"):
                if key in r:
                    raise ConfigError(
                        f"{source}: config.representations[{i}]: {kind} does not "
                        f"accept {key!r}"
                    )
            representations.append(RepresentationConfig(name=name, kind=kind))
    _unique_names([r.name for r in representations], "representation", source)

    classifiers = []
    for i, c in enumerate(raw["classifiers"]):
        kind = c["kind"]
        name = c.get("name", kind)
        if "grid" in c and kind != "mlp":
            raise ConfigError(
                f"{source}: config.classifiers[{i}]: only mlp accepts a 'grid'"
            )
        hp = {k: _tuplify(v) for k, v in c.get("hyperparameters", {}).items()}
        members = tuple(
            (m["kind"], {k: _tuplify(v) for k, v in m.get("hyperparameters", {}).items()})
            for m in c.get("members", [])
        )
        grid = None
        if "grid" in c:
            grid = {k: [_tuplify(v) for v in vals] for k, vals in c["grid"].items()}
        clf = ClassifierConfig(name=name, kind=kind, hyperparameters=hp, members=members, grid=grid)
        try:  # the specs each cell will build, so a bad one fails before anything runs
            clf.spec(0)
            for point in enumerate_grid(grid) if grid else ():
                ClassifierSpec(kind="mlp", hyperparameters=point)
        except ConfigError as exc:
            raise ConfigError(f"{source}: config.classifiers[{i}]: {exc}") from exc
        classifiers.append(clf)
    _unique_names([c.name for c in classifiers], "classifier", source)

    reduction = raw.get("reduction", {})
    components = reduction.get("components", "all")
    if isinstance(components, float) and components.is_integer() and components >= 1:
        components = int(components)

    tok_raw = raw.get("tokenizer", {})
    if "vocab_path" in tok_raw:
        tok_raw = dict(tok_raw, vocab_path=str(resolve(tok_raw["vocab_path"])))
    tokenizer = TokenizerSpec(**tok_raw)

    fb = raw.get("fallback", {})
    llm_backend = None
    if "llm" in fb:
        llm_backend = LlmBackendConfig(**fb["llm"])

    cfg = ExperimentConfig(
        data_dir=resolve(raw["data_dir"]),
        languages=languages,
        representations=tuple(representations),
        classifiers=tuple(classifiers),
        pca_axis=tuple(reduction.get("pca", [True])),
        normalize=reduction.get("normalize", True),
        components=components,
        tokenizer=tokenizer,
        static_map=dict(fb.get("static_map", {})),
        display_names=dict(fb.get("display_names", {})),
        cache_path=str(resolve(fb["cache_path"])) if "cache_path" in fb else None,
        llm_backend=llm_backend,
        seed=raw.get("seed", 0),
        out_dir=resolve(raw.get("out_dir", "out")),
    )
    _check_paths(cfg, source)
    return cfg


def _check_paths(cfg: ExperimentConfig, source: str) -> None:
    missing = []
    for lang in cfg.languages:
        for role in ("train", "dev", "test"):
            p = cfg.data_dir / lang / f"{role}.csv"
            if not p.is_file():
                missing.append(str(p))
    for rep in cfg.representations:
        for p in rep.vector_paths.values():
            if not Path(p).is_file():
                missing.append(p)
        for roles in rep.split_paths.values():
            for p in roles.values():
                if not Path(p).is_file():
                    missing.append(p)
    if cfg.tokenizer.vocab_path and not Path(cfg.tokenizer.vocab_path).is_file():
        missing.append(cfg.tokenizer.vocab_path)
    if missing:
        shown = ", ".join(missing[:8])
        more = "" if len(missing) <= 8 else f" (and {len(missing) - 8} more)"
        raise ConfigError(f"{source}: referenced files do not exist: {shown}{more}")


def load_config(
    path: str | Path, seed: int | None = None, out_dir: str | None = None
) -> ExperimentConfig:
    """Read a JSON config file, a leading byte-order mark dropped; CLI flags override seed/out_dir."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    cfg = parse_config(raw, source=str(path), base_dir=path.parent)
    if seed is not None:
        cfg.seed = seed
    if out_dir is not None:
        cfg.out_dir = Path(out_dir)
    return cfg


# ---------------------------------------------------------------------------
# cell enumeration and execution


PCA_TAGS = {True: "pca-on", False: "pca-off"}  # the PCA arm in cell and view file names


@dataclass(frozen=True)
class Cell:
    language: str
    representation: RepresentationConfig
    pca: bool
    classifier: ClassifierConfig

    @property
    def name(self) -> str:
        return "__".join(
            _sanitize(p)
            for p in (self.language, self.representation.name, PCA_TAGS[self.pca], self.classifier.name)
        )


def _sanitize(part: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", part) or "x"


def enumerate_cells(cfg: ExperimentConfig) -> list[Cell]:
    """Fixed nesting order: language, representation, pca, classifier."""
    return [
        Cell(language=lang, representation=rep, pca=pca, classifier=clf)
        for lang in cfg.languages
        for rep in cfg.representations
        for pca in cfg.pca_axis
        for clf in cfg.classifiers
    ]


def cell_seed(master_seed: int, language: str, representation: str, pca: bool, classifier: str) -> int:
    """Per-cell seed from a hash of the coordinates.

    Hash-derived rather than sequential so that adding or removing one axis
    value leaves every other cell's randomness untouched.
    """
    key = f"{master_seed}|{language}|{representation}|{int(pca)}|{classifier}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _spec_json(spec: ClassifierSpec) -> dict:
    return {
        "kind": spec.kind,
        "hyperparameters": spec.resolved_hyperparameters(),
        "members": [_spec_json(m) for m in spec.members],
    }


def _file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_files(cfg: ExperimentConfig, rep: RepresentationConfig, lang: str) -> list[str]:
    """The files besides the split CSVs that a cell of ``lang`` may read.

    That is the tokenizer's vocabulary file, if any, and the representation's
    vector or embedding files.
    """
    files = [cfg.tokenizer.vocab_path] if cfg.tokenizer.vocab_path else []
    if rep.kind == "precomputed":
        return files + sorted(rep.split_paths.get(lang, {}).values())
    # the language fallback can send any language to any vector file
    return files + sorted(rep.vector_paths.values())


def _vector_language(
    cfg: ExperimentConfig, rep: RepresentationConfig, lang: str, transport=None
) -> str | None:
    """The language whose vector file a word-vector group of ``lang`` reads; None for other kinds.

    The provenance ``resolve_language`` returns is dropped here.
    ``dense_features.resolve_language`` is looked up at call time, as the
    tracing benchmark wraps it in that module.
    """
    if rep.kind != "word-vectors":
        return None
    policy = FallbackPolicy(
        supported_languages=tuple(sorted(rep.vector_paths)),
        static_map=dict(cfg.static_map),
        display_names=dict(cfg.display_names),
        llm_backend=cfg.llm_backend,
        cache_path=cfg.cache_path,
    )
    code, _ = dense_features.resolve_language(lang, policy, transport=transport)
    return code


def cell_fingerprint(
    cfg: ExperimentConfig,
    cell: Cell,
    split_digests: dict,
    file_digests: dict,
    vector_language: str | None,
) -> str:
    """SHA-256 over everything that decides a cell's results.

    That is the cell's coordinates (language, representation name, PCA arm,
    classifier name) and the ``cell_seed`` they give, the resolved classifier
    spec and mlp grid, the master seed, the representation (kind and vector or
    embedding file paths) with the language-fallback map, the vector language
    a word-vector cell reads (``vector_language``, resolved once per group
    before any record is read, so a backend answer and a cache entry give the
    same value), the PCA arm with its normalize and components settings, the
    tokenizer, ``split_digests`` (the SHA-256 of the language's train/dev/test
    CSVs) and the SHA-256 of every other file the cell may read
    (``_input_files``: tokenizer vocabulary, vectors, embeddings), looked up
    by path in ``file_digests``, and the model format version, so a record
    whose model this build cannot read is not reused. ``--resume`` reuses a
    record only under an equal fingerprint.
    """
    rep = cell.representation
    seed = cell_seed(cfg.seed, cell.language, rep.name, cell.pca, cell.classifier.name)
    payload = {
        "cell": [cell.language, rep.name, cell.pca, cell.classifier.name],
        "cell_seed": seed,
        "classifier": _spec_json(cell.classifier.spec(seed)),
        "grid": cell.classifier.grid,
        "seed": cfg.seed,
        "representation": asdict(rep),
        "static_map": cfg.static_map,
        "vector_language": vector_language,
        "pca": [cell.pca, cfg.normalize, cfg.components],
        "tokenizer": asdict(cfg.tokenizer),
        "splits": split_digests,
        "files": {p: file_digests[p] for p in _input_files(cfg, rep, cell.language)},
        "model_format": serialize.FORMAT_VERSION,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def build_representation(
    cfg: ExperimentConfig,
    rep: RepresentationConfig,
    lang: str,
    splits: dict,
    table: EmbeddingTable | None = None,
) -> tuple[PipelineModel, list]:
    """Fit one language's featurizer on its train split and represent every split.

    Returns the featurizer (no PCA, no classifier yet) and the train/dev/test
    matrices before reduction. Each split is tokenized once, with the
    featurizer's own tokenizer. A word-vector featurizer carries ``table``,
    the vectors of the group's resolved vector language, which ``run_matrix``
    loads once for every group that reads the same file. The featurizer names
    an external vocabulary by its file name, not its path, so a saved model
    does not depend on where its inputs sit.
    """
    spec = cfg.tokenizer
    featurizer = PipelineModel(
        language=lang,
        representation=rep.name,
        representation_kind=rep.kind,
        tokenizer_spec=replace(spec, vocab_path=spec.vocab_path and Path(spec.vocab_path).name),
        normalize=cfg.normalize,
    )
    if rep.kind == "precomputed":
        if lang not in rep.split_paths:
            raise DataError(
                f"no precomputed embeddings configured for language {lang!r}"
            )
        return featurizer, [
            load_precomputed_embeddings(rep.split_paths[lang][role], splits[role].ids())
            for role in ROLES
        ]

    featurizer.tokenizer_vocab = Tokenizer(spec).vocab_tokens
    tokenizer = featurizer.make_tokenizer()
    seqs = [tokenize_split(splits[role], tokenizer) for role in ROLES]
    if rep.kind == "bow":
        vocab = fit_bow(seqs[0])
        # unit idf without row normalization is exactly the count matrix
        featurizer.tfidf = TfidfModel(
            vocabulary=vocab, idf=np.ones(len(vocab)), row_normalize=False
        )
    elif rep.kind == "tfidf":
        featurizer.tfidf = fit_tfidf(seqs[0])
    else:  # word-vectors
        featurizer.embeddings = table
    return featurizer, [featurizer.represent(s) for s in seqs]


def _fit_reduction(cfg: ExperimentConfig, featurizer: PipelineModel, pca: bool, xs: list):
    """The featurizer of one PCA arm, fitted on train, and the splits it reduces to."""
    if pca:
        pca_model = fit_pca(
            featurizer.reduce(xs[0]), ReductionConfig(components=cfg.components)
        )
        featurizer = replace(featurizer, pca=pca_model)
    return featurizer, [featurizer.reduce(x) for x in xs]


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _cell_report(cell: Cell, **values) -> EvalReport:
    return EvalReport(
        language=cell.language,
        representation=cell.representation.name,
        classifier=cell.classifier.name,
        pca=cell.pca,
        f1_macro=math.nan,
        **values,
    )


def _cell_files(cfg: ExperimentConfig, cell: Cell) -> tuple[Path, Path]:
    return cfg.out_dir / "predictions" / f"{cell.name}.csv", cfg.out_dir / "models" / f"{cell.name}.npz"


def run_cell(
    cfg: ExperimentConfig,
    cell: Cell,
    splits: dict,
    featurizer: PipelineModel,
    xs: list,
    representation_seconds: float,
    reduce_seconds: float,
    memo: dict,
) -> tuple[EvalReport, object]:
    """Fit, predict, score and save one cell; return its report and classifier (None if unfitted).

    ``featurizer`` and ``xs`` are shared by every classifier of the cell's
    (language, representation, pca) group; ``reduce_seconds`` is the group's
    normalize + PCA time, counted in each cell's train time. ``memo`` is the
    ``save_model`` memo of the run of groups the cell's (language,
    representation) group belongs to (see ``run_matrix``).
    """
    report = _cell_report(cell)
    model = None
    try:
        seed = cell_seed(
            cfg.seed, cell.language, cell.representation.name, cell.pca, cell.classifier.name
        )
        y_train = splits["train"].label_matrix()
        y_dev = splits["dev"].label_matrix()
        x_train, x_dev, x_test = xs

        def train():
            clf = cell.classifier
            if clf.kind == "mlp" and clf.grid:
                _, _, winner = grid_search_mlp(
                    clf.grid, (x_train, y_train), (x_dev, y_dev), seed=seed
                )
                return winner
            return fit(clf.spec(seed), x_train, y_train)

        model, fit_seconds = time_run(train)
        pred, predict_seconds = time_run(lambda: model.predict(x_test))

        report.timing = TimingRecord(
            train_seconds=reduce_seconds + fit_seconds,
            predict_seconds=predict_seconds,
            representation_seconds=representation_seconds,
        )

        pred_path, model_path = _cell_files(cfg, cell)
        write_predictions(pred_path, splits["test"].ids(), pred)
        # score from the persisted file so emitted numbers always re-validate
        _, persisted = read_predictions(pred_path)
        if splits["test"].labeled:
            y_test = splits["test"].label_matrix()
            report.f1_macro = f1_macro(y_test, persisted)
            report.rates = confusion_rates(y_test, persisted)

        save_model(replace(featurizer, classifier=model), model_path, memo=memo)
    except Exception as exc:  # noqa: BLE001 - a cell failure must not kill the matrix
        report.status = "error"
        report.error = _error_text(exc)
    return report, model


# ---------------------------------------------------------------------------
# per-cell completion records (resume support)


def _json_value(value):
    """``value`` as plain JSON: NaN as null, arrays and tuples as lists."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _write_cell_record(
    cfg: ExperimentConfig, cell: Cell, report: EvalReport, fingerprint: str, model=None
) -> None:
    """One line of JSON per cell: the report's fields and the node count and depth of the model's trees.

    Those are the model itself if it is a tree or forest, else its voting members that are.
    """
    trees = [m for m in getattr(model, "members", [model]) if isinstance(m, (DecisionTree, RandomForest))]
    record = {
        "name": cell.name,
        **_json_value(asdict(report)),
        "tree_nodes": sum(tree.feature.size for tree in trees),
        "tree_depth": max((tree.depth() for tree in trees), default=None),
        "fingerprint": fingerprint,
    }
    # a record appears whole or not at all, so --resume never reads half of one
    with atomic_open(cfg.out_dir / "cells" / f"{cell.name}.json", encoding="utf-8") as fh:
        fh.write(json.dumps(record, allow_nan=False) + "\n")


def _read_cell_record(cfg: ExperimentConfig, cell: Cell, fingerprint: str) -> EvalReport | None:
    """The cell's completion record, if it can be reused as it stands.

    None (run the cell) when the record is missing, unreadable, failed, or
    was written under a different fingerprint.
    """
    path = cfg.out_dir / "cells" / f"{cell.name}.json"
    if not path.is_file():
        return None
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["status"] != "ok" or record["fingerprint"] != fingerprint:
            return None
        report = EvalReport(**{f.name: record[f.name] for f in fields(EvalReport)})
        report.f1_macro = float(np.array(report.f1_macro, dtype=float))
        report.timing = TimingRecord(**report.timing)
        if report.rates is not None:
            rates = report.rates
            report.rates = ConfusionRates(
                labels=tuple(rates.pop("labels")),
                **{k: np.array(v, dtype=float) for k, v in rates.items()},
            )
        return report
    except (ValueError, KeyError, TypeError, AttributeError):
        return None  # truncated or malformed: the cell runs again


def _end_cell(
    cfg: ExperimentConfig, cell: Cell, report: EvalReport, fingerprint: str, model, log
) -> None:
    """End a cell that ran or failed: write its record, remove a failed cell's files, log it."""
    _write_cell_record(cfg, cell, report, fingerprint, model)
    if report.status != "ok":  # after the record: a cut run leaves no ok record without its files
        for path in _cell_files(cfg, cell):
            path.unlink(missing_ok=True)
    log(cell, report, _f1_text(report) if report.status == "ok" else report.error)


# ---------------------------------------------------------------------------
# the matrix


def _run_group(cfg: ExperimentConfig, cells: list[Cell], splits: dict, resolution: tuple, shared: dict):
    """Run a (language, representation) group's pending cells; yield each ``(cell, report, model)``.

    ``resolution`` is the group's vector language, its seconds and error text.
    ``shared`` holds what the group's run of groups shares: the vector table,
    loaded by the first group that needs it, and the memo of deflated model members.
    """
    lang, rep = cells[0].language, cells[0].representation
    code, rep_seconds, error = resolution
    if not error:
        try:
            if code is not None and "table" not in shared:
                path = rep.vector_paths[code]
                shared["table"], seconds = time_run(lambda: load_word_vectors(path, language=code))
                rep_seconds += seconds
            (featurizer, xs), seconds = time_run(
                lambda: build_representation(cfg, rep, lang, splits, shared.get("table"))
            )
            rep_seconds += seconds
        except Exception as exc:  # noqa: BLE001 - recorded per cell
            error = _error_text(exc)
    listing = cfg.out_dir / "vocab" / f"{_sanitize(lang)}__{_sanitize(rep.name)}.tsv"
    if error:
        listing.unlink(missing_ok=True)  # an earlier run's vocabulary is not this run's
        for cell in cells:
            yield cell, _cell_report(cell, status="error", error=f"representation: {error}"), None
        return
    if featurizer.tfidf is not None:
        save_vocabulary(featurizer.tfidf.vocabulary, listing)
    memo = shared.setdefault("memo", {})  # an array the run's models share is deflated once
    for pca, arm in groupby(cells, key=lambda c: c.pca):
        try:
            (arm_featurizer, reduced), reduce_seconds = time_run(
                lambda: _fit_reduction(cfg, featurizer, pca, xs)
            )
        except Exception as exc:  # noqa: BLE001 - recorded per cell
            for cell in arm:
                yield cell, _cell_report(cell, status="error", error=_error_text(exc)), None
            continue
        for cell in arm:
            yield cell, *run_cell(
                cfg, cell, splits, arm_featurizer, reduced, rep_seconds, reduce_seconds, memo
            )


def run_matrix(
    cfg: ExperimentConfig,
    resume: bool = False,
    transport=None,
    log=None,
) -> ReportTable:
    """Execute every cell of the experiment matrix and write all reports.

    Every (language, representation) group first resolves the vector language
    its word-vector cells read, once and before any group runs, then
    fingerprints its cells with it. With ``resume`` enabled, a cell whose
    completion record in the output directory is ok and carries that
    fingerprint is loaded instead of re-executed; every other cell runs. So a
    backend is queried once per group that only it can resolve, resumed or
    not, and resume needs no fallback cache. A resolution error fails only
    its own group's cells.

    Groups run in nesting order, except that the groups which read the same
    (vector file, vector language) run back to back where the first of them
    stood: with ``gl`` sent to ``es``'s vectors, es/tfidf, es/word-vectors,
    gl/word-vectors, gl/tfidf. Such a run of groups parses the file once and
    shares one table object and one ``save_model`` memo, so the table is
    encoded and deflated once; both are dropped when the run ends.

    ``transport`` overrides the language-fallback HTTP client (used by
    tests). ``log`` is an optional line sink for progress output, one line
    per completed cell, numbered ``[k/N]`` in completion order.
    """
    say = log or (lambda msg: None)
    cells = enumerate_cells(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    reports: dict[str, EvalReport] = {}

    def done(cell: Cell, report: EvalReport, marker: str) -> None:
        reports[cell.name] = report
        say(f"[{len(reports)}/{len(cells)}] {cell.name}: {marker}")

    split_digests = {
        lang: {role: _file_digest(cfg.data_dir / lang / f"{role}.csv") for role in ROLES}
        for lang in cfg.languages
    }
    # each input file is hashed once, however many cells read it
    files = {
        p for rep in cfg.representations for lang in cfg.languages for p in _input_files(cfg, rep, lang)
    }
    file_digests = {p: _file_digest(p) for p in files}
    fingerprints: dict[str, str] = {}
    splits: dict[str, dict] = {}  # a language's splits, loaded when a cell of it first runs

    # cells come in nesting order, so each (language, representation) group
    # and each pca arm inside it is one run of consecutive cells
    groups = [list(g) for _, g in groupby(cells, key=lambda c: (c.language, c.representation.name))]
    runs: dict = {}  # run key -> [(group, resolution)], in order of each run's first group
    for i, group in enumerate(groups):
        lang, rep = group[0].language, group[0].representation
        try:
            code, seconds = time_run(lambda: _vector_language(cfg, rep, lang, transport))
            resolution = code, seconds, ""
        except Exception as exc:  # noqa: BLE001 - recorded per cell
            code, resolution = None, (None, 0.0, _error_text(exc))
        for c in group:
            fingerprints[c.name] = cell_fingerprint(cfg, c, split_digests[lang], file_digests, code)
        key = i if code is None else (rep.vector_paths.get(code), code)
        runs.setdefault(key, []).append((group, resolution))
    for run in runs.values():
        # the run's table and memo are released when it ends, before the
        # next run fits anything
        shared: dict = {}
        for group, resolution in run:
            lang = group[0].language
            pending = []
            for cell in group:
                existing = _read_cell_record(cfg, cell, fingerprints[cell.name]) if resume else None
                if existing is None:
                    pending.append(cell)
                else:
                    done(cell, existing, "resumed")
            if not pending:
                continue
            if lang not in splits:
                splits[lang] = {
                    role: load_split(cfg.data_dir / lang / f"{role}.csv", role, lang) for role in ROLES
                }
            for cell, report, model in _run_group(cfg, pending, splits[lang], resolution, shared):
                _end_cell(cfg, cell, report, fingerprints[cell.name], model, done)

    table = ReportTable(rows=[reports[c.name] for c in cells])
    write_reports(cfg, cells, table)
    return table


# ---------------------------------------------------------------------------
# report files


def _number_text(value: float, fmt=repr) -> str:
    return "n/a" if math.isnan(value) else fmt(float(value))


def _f1_text(report: EvalReport) -> str:
    return _number_text(report.f1_macro) if report.status == "ok" else "error"


def _write_csv(path: Path, rows) -> None:
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _write_text(path: Path, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_cell_table(path: Path, columns: list[str], table: ReportTable, values) -> None:
    """One row per cell: its coordinates, then ``values(report)``."""
    rows = [
        [r.language, r.representation, "on" if r.pca else "off", r.classifier, *values(r)]
        for r in table.rows
    ]
    _write_csv(path, [["language", "representation", "pca", "classifier", *columns], *rows])


def _write_language_table(path: Path, columns: list[str], cfg: ExperimentConfig, values) -> None:
    """One row per language: its name, then ``values(language)``."""
    _write_csv(path, [["language", *columns]] + [[lang, *values(lang)] for lang in cfg.languages])


def _row_index(cells: list[Cell], table: ReportTable) -> dict:
    return {
        (c.language, c.representation.name, c.pca, c.classifier.name): r
        for c, r in zip(cells, table.rows)
    }


def _train_test_text(report: EvalReport) -> list[str]:
    if report.status != "ok":
        return ["error", "error"]
    return [format_seconds(report.timing.train_seconds), format_seconds(report.timing.predict_seconds)]


def write_reports(cfg: ExperimentConfig, cells: list[Cell], table: ReportTable) -> None:
    """Write every report file of a run; ``run_ablation`` adds the ablation tables.

    Wall-clock values go to ``timing/`` only, never to ``report.csv`` or ``views/``.
    """
    out, reps, clfs = cfg.out_dir, cfg.representations, cfg.classifiers
    index = _row_index(cells, table)
    _write_cell_table(
        out / "report.csv", ["status", "f1_macro", "error"], table,
        lambda r: [r.status, _f1_text(r) if r.status == "ok" else "", r.error],
    )
    seconds = ["representation_seconds", "train_seconds", "predict_seconds"]
    _write_cell_table(
        out / "timing" / "cells.csv", seconds, table,
        lambda r: [format_seconds(getattr(r.timing, s)) for s in seconds],
    )
    for pca in cfg.pca_axis:
        tag = PCA_TAGS[pca]
        for clf in clfs:
            _write_language_table(
                out / "views" / f"f1_by_representation.{tag}.{_sanitize(clf.name)}.csv",
                [rep.name for rep in reps], cfg,
                lambda lang: [_f1_text(index[lang, rep.name, pca, clf.name]) for rep in reps],
            )
        for rep in reps:
            _write_language_table(
                out / "views" / f"f1_by_classifier.{tag}.{_sanitize(rep.name)}.csv",
                [c.name for c in clfs], cfg,
                lambda lang: [_f1_text(index[lang, rep.name, pca, c.name]) for c in clfs],
            )
            _write_language_table(
                out / "timing" / f"train_test.{tag}.{_sanitize(rep.name)}.csv",
                [f"{c.name}_{part}" for c in clfs for part in ("train", "test")], cfg,
                lambda lang: [
                    t for c in clfs for t in _train_test_text(index[lang, rep.name, pca, c.name])
                ],
            )
    confusion = out / "views" / "confusion"
    for cell, r in zip(cells, table.rows):
        csv_path, txt_path = confusion / f"{cell.name}.csv", confusion / f"{cell.name}.txt"
        if r.rates is None:  # failed, or its test split has no labels: no earlier view stays
            csv_path.unlink(missing_ok=True)
            txt_path.unlink(missing_ok=True)
        else:
            rows = [[name, *map(_number_text, values)] for name, values in r.rates.as_rows()]
            _write_csv(csv_path, [["rate", *r.rates.labels], *rows])
            _write_text(txt_path, format_confusion_table(r.rates))


# ---------------------------------------------------------------------------
# ablation


def run_ablation(
    cfg: ExperimentConfig, resume: bool = False, transport=None, log=None
) -> tuple[ReportTable, ReportTable]:
    """Run the matrix with the PCA axis forced to {on, off} and emit paired tables.

    Returns (with-PCA table, without-PCA table) in matching row order.
    """
    cfg = replace(cfg, pca_axis=(True, False))
    table = run_matrix(cfg, resume=resume, transport=transport, log=log)
    cells = enumerate_cells(cfg)
    index = _row_index(cells, table)
    for lang in cfg.languages:
        tag = _sanitize(lang)
        _write_ablation(
            cfg.out_dir / "views" / f"ablation_f1.{tag}", cfg, lang, index,
            lambda r: r.f1_macro, lambda v: f"{v:.4f}",
        )
        _write_ablation(
            cfg.out_dir / "timing" / f"ablation_train_seconds.{tag}", cfg, lang, index,
            lambda r: r.timing.train_seconds, format_seconds,
        )
    on_rows = [r for c, r in zip(cells, table.rows) if c.pca]
    off_rows = [r for c, r in zip(cells, table.rows) if not c.pca]
    return ReportTable(rows=on_rows), ReportTable(rows=off_rows)


def _write_ablation(
    path: Path, cfg: ExperimentConfig, lang: str, index: dict, value, fmt
) -> None:
    """One language's w/o PCA, w/ PCA and delta blocks, as ``path``.csv and aligned ``path``.txt.

    Each block has a row per representation and a column per classifier,
    holding ``value(report)`` of an ok cell and n/a of a failed one. The CSV
    prints full precision, the text ``fmt(value)``.
    """

    def values(rep, pca):
        reports = [index[lang, rep.name, pca, c.name] for c in cfg.classifiers]
        return [value(r) if r.status == "ok" else math.nan for r in reports]

    blocks = [
        (label, rep.name, values(rep, pca))
        for label, pca in (("w/o PCA", False), ("w/ PCA", True))
        for rep in cfg.representations
    ]
    blocks += [
        ("delta", rep.name, [on - off for on, off in zip(values(rep, True), values(rep, False))])
        for rep in cfg.representations
    ]

    def rows(fmt):
        return [[label, rep, *(_number_text(v, fmt) for v in vs)] for label, rep, vs in blocks]

    names = [c.name for c in cfg.classifiers]
    _write_csv(Path(f"{path}.csv"), [["group", "representation", *names], *rows(repr)])
    _write_text(Path(f"{path}.txt"), format_text_table([["", "", *names], *rows(fmt)]))


# ---------------------------------------------------------------------------
# prediction on new files


def predict_file(model_path: str | Path, input_csv: str | Path, output_csv: str | Path) -> int:
    """Label an id,text CSV with a persisted pipeline model.

    Returns the number of rows written. The output carries the submission
    header: id plus the six emotion columns.
    """
    model = load_model(model_path)
    if not isinstance(model, PipelineModel):
        raise FormatError(f"{model_path}: not a pipeline model file")
    split = load_split(input_csv, role="test")
    pred = model.predict_texts(split.texts())
    write_predictions(output_csv, split.ids(), pred, model.emotions)
    return len(split)
