"""Dense document vectors from embedding files, plus language fallback.

Word vectors are ingested from the common text vector format: an optional
``<count> <dim>`` header line followed by ``token v1 ... vd`` lines.
Documents become the arithmetic mean of their in-vocabulary token vectors;
all-OOV documents map to the zero vector and are tallied in an OovReport.

Precomputed sentence embeddings (produced by any external encoder) are
ingested either as CSV ``id,v1,...,vd`` or as the same text vector format
keyed by document id, and re-aligned to a caller-supplied id order.

Languages without an embedding file are resolved to a supported language via
a static map or, failing that, a chat-completion backend queried with a
fixed linguist prompt; resolutions are cached to a two-column text file so a
repeat run needs no network access.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import (
    AlignmentError,
    ConfigError,
    FormatError,
    ResolutionError,
    TransportError,
)

ENV_API_KEY = "EMO_LLM_API_KEY"
ENV_ENDPOINT = "EMO_LLM_ENDPOINT"

DEFAULT_PROMPT_TEMPLATE = (
    "You are a linguist working on language classification and are familiar "
    "with the given languages: {known_languages}. Please select the language "
    "from the list that is most similar to {given_language} based on language "
    "family and geographic distance in terms of population distribution."
)


@dataclass(frozen=True)
class EmbeddingTable:
    """Exact-match token-to-vector lookup; every vector has length ``dimension``."""

    dimension: int
    vectors: dict[str, np.ndarray]
    language: str = ""
    source: str = ""

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class OovReport:
    n_documents: int
    n_fully_oov: int
    n_tokens: int
    n_oov_tokens: int


def _parse_vector(values: list[str], path: Path, lineno: int) -> np.ndarray:
    """One line's values as a vector; anything but finite numbers is a FormatError."""
    try:
        vector = np.array([float(v) for v in values])
    except ValueError as exc:
        raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    if not np.isfinite(vector).all():
        raise FormatError(f"{path}: line {lineno}: non-finite vector value")
    return vector


def load_word_vectors(path: str | Path, language: str = "") -> EmbeddingTable:
    """Parse a text word-vector file into an EmbeddingTable.

    The first line may be a ``<count> <dim>`` header; otherwise the dimension
    is taken from the first data line. A later duplicate of a token
    overwrites the earlier entry. Any line whose value count disagrees with
    the established dimension raises FormatError with its line number.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            parts = [p for p in parts if p != ""]
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
                dim = int(parts[1])
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise FormatError(f"{path}: line 1 has a token but no vector values")
            if len(values) != dim:
                raise FormatError(
                    f"{path}: line {lineno} has {len(values)} values, expected {dim}"
                )
            vectors[token] = _parse_vector(values, path, lineno)
    if dim is None or not vectors:
        raise FormatError(f"{path}: no vector entries found")
    return EmbeddingTable(dimension=dim, vectors=vectors, language=language, source=str(path))


def embed_documents(docs, table: EmbeddingTable) -> tuple[np.ndarray, OovReport]:
    """Mean-pool token vectors into one row per document.

    Returns the (n_docs, dimension) matrix and an OovReport counting dropped
    tokens and fully out-of-vocabulary documents.
    """
    if len(table) == 0:
        raise ConfigError("embedding table is empty")
    rows = np.zeros((len(docs), table.dimension))
    n_tokens = 0
    n_oov = 0
    n_fully_oov = 0
    for i, doc in enumerate(docs):
        tokens = doc.tokens if hasattr(doc, "tokens") else tuple(doc)
        hits = [table.vectors[t] for t in tokens if t in table.vectors]
        n_tokens += len(tokens)
        n_oov += len(tokens) - len(hits)
        if hits:
            rows[i] = np.mean(hits, axis=0)
        else:
            n_fully_oov += 1
    return rows, OovReport(
        n_documents=len(docs),
        n_fully_oov=n_fully_oov,
        n_tokens=n_tokens,
        n_oov_tokens=n_oov,
    )


def load_precomputed_embeddings(path: str | Path, ids: list[str]) -> np.ndarray:
    """Load external sentence vectors and align rows to the given id order.

    Accepts CSV ``id,v1,...,vd`` (header optional) or the text vector format
    keyed by id. Every expected id must be present exactly once; extra ids in
    the file are ignored.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: file is empty")

    by_id: dict[str, np.ndarray] = {}
    dim: int | None = None
    delim = "," if "," in lines[0] else None
    start = 0
    first = lines[0].split(delim)
    if delim == "," and first[0].strip() == "id":
        start = 1  # header row
    elif delim is None and len(first) == 2 and first[0].isdigit() and first[1].isdigit():
        start = 1
        dim = int(first[1])
    for lineno, line in enumerate(lines[start:], start=start + 1):
        parts = [p.strip() for p in line.split(delim)] if delim else line.split()
        key, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            raise FormatError(f"{path}: line {lineno} has {len(values)} values, expected {dim}")
        if key in by_id:
            raise AlignmentError(f"{path}: duplicate embedding for id {key!r}")
        by_id[key] = _parse_vector(values, path, lineno)

    missing = [i for i in ids if i not in by_id]
    if missing:
        shown = ", ".join(repr(m) for m in missing[:10])
        more = "" if len(missing) <= 10 else f" (and {len(missing) - 10} more)"
        raise AlignmentError(f"{path}: missing embeddings for ids {shown}{more}")
    return np.vstack([by_id[i] for i in ids])


@dataclass(frozen=True)
class LlmBackendConfig:
    """Connection settings for a generic chat-completion endpoint."""

    endpoint: str
    model: str
    auth_env: str = ENV_API_KEY
    timeout_seconds: float = 30.0
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE

    def __post_init__(self):
        for placeholder in ("{known_languages}", "{given_language}"):
            if self.prompt_template.count(placeholder) != 1:
                raise ConfigError(
                    f"prompt template must contain {placeholder} exactly once"
                )


@dataclass
class FallbackPolicy:
    """How to map a language without an embedding file onto a supported one.

    ``display_names`` maps codes to the human-readable names used in the
    prompt and scanned for in the reply; a code absent from the map is shown
    as itself.
    """

    supported_languages: tuple[str, ...]
    static_map: dict[str, str] = field(default_factory=dict)
    display_names: dict[str, str] = field(default_factory=dict)
    llm_backend: LlmBackendConfig | None = None
    cache_path: str | None = None

    def __post_init__(self):
        for source, target in self.static_map.items():
            if target not in self.supported_languages:
                raise ConfigError(
                    f"static map sends {source!r} to unsupported language {target!r}"
                )

    def name_of(self, code: str) -> str:
        return self.display_names.get(code, code)


def render_prompt(config: LlmBackendConfig, known: list[str], given: str) -> str:
    """Fill the prompt template; byte-deterministic for equal inputs."""
    if not known:
        raise ConfigError("cannot render a prompt with an empty known-language list")
    return config.prompt_template.format(
        known_languages=", ".join(known), given_language=given
    )


def http_transport(config: LlmBackendConfig, prompt: str) -> str:
    """Default transport: POST a chat-completion request, return the reply text."""
    import requests

    endpoint = os.environ.get(ENV_ENDPOINT, config.endpoint)
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(config.auth_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
    }
    try:
        resp = requests.post(
            endpoint, json=payload, headers=headers, timeout=config.timeout_seconds
        )
        resp.raise_for_status()
        body = resp.json()
    except requests.RequestException as exc:
        raise TransportError(f"chat-completion request failed: {exc}") from exc
    try:
        return body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed chat-completion reply: {body!r}") from exc


def parse_reply(reply: str, policy: FallbackPolicy) -> str:
    """Pick the supported language whose name appears earliest in the reply.

    Matching is a case-insensitive substring scan over the supported names;
    when two names start at the same position the longer one wins. Raises
    ResolutionError (carrying the raw reply) when no name occurs.
    """
    lowered = reply.lower()
    best: tuple[int, int, str] | None = None
    for code in policy.supported_languages:
        name = policy.name_of(code).lower()
        pos = lowered.find(name)
        if pos < 0:
            continue
        candidate = (pos, -len(name), code)
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise ResolutionError(f"no supported language name found in reply: {reply!r}")
    return best[2]


def _cache_read(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    p = Path(path)
    if not p.exists():
        return out
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(
                f"{p}: line {lineno}: expected 'language<TAB>resolved language', got {line!r}"
            )
        out[parts[0]] = parts[1]
    return out


def _cache_add(path: str, source: str, target: str) -> None:
    """Add one resolution to the cache file, which is replaced whole or not at all."""
    entries = _cache_read(path)
    entries[source] = target
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write("".join(f"{s}\t{t}\n" for s, t in entries.items()))


def resolve_locally(lang: str, policy: FallbackPolicy) -> tuple[str, str] | None:
    """``resolve_language`` without the backend query: None when only the backend can answer."""
    if lang in policy.supported_languages:
        return lang, "native"
    if lang in policy.static_map:
        return policy.static_map[lang], "static"
    if policy.cache_path:
        cached = _cache_read(policy.cache_path).get(lang)
        if cached is not None:
            return cached, "llm"
    return None


def resolve_language(
    lang: str, policy: FallbackPolicy, transport=None
) -> tuple[str, str]:
    """Map a language code to a supported one.

    Returns (code, provenance) with provenance in {"native", "static",
    "llm"}. Resolution order: supported as-is, then the static map, then the
    cache of earlier backend answers, then a live backend query whose answer
    is added to the cache. ``transport`` defaults to the HTTP client and
    can be replaced for testing.
    """
    known = resolve_locally(lang, policy)
    if known is not None:
        return known
    if policy.llm_backend is None:
        raise ResolutionError(
            f"language {lang!r} is not supported and no static mapping or "
            "backend is configured"
        )
    known_names = [policy.name_of(c) for c in policy.supported_languages]
    prompt = render_prompt(policy.llm_backend, known_names, policy.name_of(lang))
    if transport is None:
        transport = http_transport
    reply = transport(policy.llm_backend, prompt)
    code = parse_reply(reply, policy)
    if policy.cache_path:
        _cache_add(policy.cache_path, lang, code)
    return code, "llm"
