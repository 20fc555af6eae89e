"""The config reader against the JSON Schema it replaced, one mutation of a full config at a time."""

import copy
import json
import re

import jsonschema
import pytest

from polyemo.errors import ConfigError
from polyemo.runner import parse_config

# The schema the runner validated configs with before it read them itself, frozen here as the reference.
FROZEN_SCHEMA = {
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
                    "kind": {"enum": ["bow", "tfidf", "word-vectors", "precomputed"]},
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
                    "kind": {"enum": ["dt", "knn", "rf", "svm", "voting", "mlp"]},
                    "hyperparameters": {"type": "object"},
                    "members": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["kind"],
                            "additionalProperties": False,
                            "properties": {
                                "kind": {"enum": ["dt", "knn", "rf", "svm", "mlp"]},
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
                "kind": {"enum": ["unicode-words", "whitespace", "external-vocab"]},
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
        "workers": {"const": 1},
    },
}

# every key the schema knows, each with a valid value; paths are relative to the config's directory
FULL_CONFIG = {
    "data_dir": "data",
    "languages": ["syn"],
    "representations": [
        {"name": "bow", "kind": "bow"},
        {"name": "wv", "kind": "word-vectors", "vectors": {"syn": "syn.vec"}},
        {
            "name": "pre",
            "kind": "precomputed",
            "embeddings": {"syn": {"train": "emb/train.csv", "dev": "emb/dev.csv", "test": "emb/test.csv"}},
        },
    ],
    "classifiers": [
        {"name": "knn", "kind": "knn", "hyperparameters": {"k": 3}},
        {
            "name": "vote",
            "kind": "voting",
            "members": [{"kind": "dt", "hyperparameters": {"max_depth": 2}}, {"kind": "knn"}],
        },
        {"name": "mlp", "kind": "mlp", "grid": {"epochs": [5, 10], "hidden_sizes": [[4]]}},
    ],
    "reduction": {"normalize": True, "components": 2, "pca": [True, False]},
    "tokenizer": {"kind": "external-vocab", "lowercase": False, "vocab_path": "vocab.txt"},
    "fallback": {
        "static_map": {"xx": "syn"},
        "display_names": {"syn": "Synthetic"},
        "cache_path": "cache.json",
        "llm": {
            "endpoint": "http://localhost:1/v1",
            "model": "m",
            "timeout_seconds": 5,
            "prompt_template": "Known: {known_languages}. Given: {given_language}.",
        },
    },
    "seed": 7,
    "out_dir": "out",
    "workers": 1,
}

FILES = ["data/syn/train.csv", "data/syn/dev.csv", "data/syn/test.csv", "syn.vec", "vocab.txt"]
FILES += ["emb/train.csv", "emb/dev.csv", "emb/test.csv"]

# the values put in place of each value of the full config
PROBES = [None, True, False, 0, 1, 2, -1, 0.0, 1.0, 0.5, 2.5, "", "x", "all", "dt", [], [False], {}, {"kind": "dt"}]

# the refusals of checks the schema never made, made after every key's type and shape are read
MANUAL_REFUSALS = [
    "referenced files do not exist",
    "word-vectors requires a non-empty 'vectors'",
    "precomputed requires a non-empty 'embeddings'",
    "does not accept 'vectors'",
    "does not accept 'embeddings'",
    "only mlp accepts a 'grid'",
    "unknown hyperparameters for",
    "voting spec requires at least one member spec",
    "spec does not accept members",
    "duplicate .* name",
    "both become",
    "external-vocab tokenizer requires a vocabulary file",
    "tokenizer does not accept a vocabulary file",
    "prompt template must contain",
    r"config\.reduction\.pca: .* repeats a PCA arm",
]


def place(path) -> str:
    return "config" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def nodes(value, path=()):
    """``(path, value)`` of ``value`` and of every value inside it, depth first."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutations(config):
    """``(description, place, mutated config)`` for each single change: a value replaced, a key deleted or added."""

    def changed(path, change):
        mutated = copy.deepcopy(config)
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        change(parent, path[-1])
        return mutated

    for path, value in nodes(config):
        if path:
            for probe in PROBES:
                mutated = changed(path, lambda parent, key: parent.__setitem__(key, copy.deepcopy(probe)))
                yield f"{place(path)} = {probe!r}", place(path), mutated
        if isinstance(value, dict):
            for key in value:
                yield f"del {place(path + (key,))}", place(path + (key,)), changed(path + (key,), dict.__delitem__)
            added = path + ("unknown",)
            yield f"add {place(added)}", place(added), changed(added, lambda parent, key: parent.__setitem__(key, "x"))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    """A directory holding an empty file at every path the full config names."""
    root = tmp_path_factory.mktemp("config")
    for name in FILES:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text("", encoding="utf-8")
    return root


def test_full_config_parses(config_dir):
    cfg = parse_config(FULL_CONFIG, source="config", base_dir=config_dir)
    assert [r.kind for r in cfg.representations] == ["bow", "word-vectors", "precomputed"]
    assert cfg.classifiers[1].members == (("dt", {"max_depth": 2}), ("knn", {}))
    assert cfg.classifiers[2].grid == {"epochs": [5, 10], "hidden_sizes": [(4,)]}
    assert cfg.representations[2].split_paths["syn"]["dev"] == str(config_dir / "emb/dev.csv")
    assert (cfg.components, cfg.pca_axis, cfg.seed, cfg.llm_backend.timeout_seconds) == (2, (True, False), 7, 5)
    assert cfg.tokenizer.vocab_path == str(config_dir / "vocab.txt")
    assert cfg.cache_path == str(config_dir / "cache.json")


@pytest.mark.parametrize("timeout", ["NaN", "Infinity"])
def test_timeout_that_is_no_positive_number_refused(config_dir, timeout):
    # the schema let NaN and Infinity, which json reads, through as a timeout
    raw = json.loads(json.dumps(FULL_CONFIG).replace('"timeout_seconds": 5', f'"timeout_seconds": {timeout}'))
    with pytest.raises(ConfigError, match=r"^config: config\.fallback\.llm\.timeout_seconds: "):
        parse_config(raw, source="config", base_dir=config_dir)


def test_reader_refuses_what_the_schema_refuses(config_dir):
    validator = jsonschema.Draft202012Validator(FROZEN_SCHEMA)
    assert not list(validator.iter_errors(FULL_CONFIG))
    manual = re.compile("|".join(MANUAL_REFUSALS))
    wrong, refused, accepted = [], 0, 0
    for description, where, mutated in mutations(FULL_CONFIG):
        schema_refuses = next(validator.iter_errors(mutated), None) is not None
        try:
            parse_config(mutated, source="config", base_dir=config_dir)
            error = None
        except ConfigError as exc:
            error = str(exc)
        if schema_refuses:
            refused += 1
            if error is None or not error.startswith(f"config: {where}"):
                wrong.append(f"{description}: the schema refuses it, the reader gives {error!r}")
        else:
            accepted += 1
            if error is not None and not manual.search(error):
                wrong.append(f"{description}: the schema accepts it, the reader refuses it with {error!r}")
    assert not wrong, "\n".join(wrong[:20]) + f"\n({len(wrong)} in all)"
    assert (refused, accepted) == (1124, 282)  # the sweep reaches both sides of the schema
