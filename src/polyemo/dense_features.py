"""Dense document vectors from embedding files, plus language fallback.

Word vectors and precomputed sentence embeddings (produced by any external
encoder) go through one reader of text vector files. Word vectors come in the
common text vector format: ``token v1 ... vd`` lines, in which runs of spaces
count as one, after an optional ``<count> <dim>`` header on line 1.
Precomputed embeddings come in that same format keyed by document id, or as
CSV ``id,v1,...,vd`` rows after an optional header row on line 1 whose first
field is ``id``. Blank lines are skipped; a malformed line, or one that is
not UTF-8, is a FormatError that names it, and a file that cannot be opened
is a DataError that names it.

Documents become the arithmetic mean of their in-vocabulary token vectors;
all-OOV documents map to the zero vector and are tallied in an OovReport.
A word-vector table keeps its tokens sorted and finds a call's distinct
tokens by binary search over them, so it holds no per-token object.
Precomputed rows are re-aligned to a caller-supplied id order.

Languages without an embedding file are resolved to a supported language via
a static map or, failing that, a chat-completion backend queried with a
fixed linguist prompt; resolutions are cached to a two-column text file so a
repeat run needs no network access.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from itertools import chain, count
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .atomic import atomic_open
from .errors import (
    AlignmentError,
    ConfigError,
    FormatError,
    ResolutionError,
    TransportError,
    open_input,
)
from .tokenize import tokens_of

ENV_API_KEY = "EMO_LLM_API_KEY"
ENV_ENDPOINT = "EMO_LLM_ENDPOINT"

DEFAULT_PROMPT_TEMPLATE = (
    "You are a linguist working on language classification and are familiar "
    "with the given languages: {known_languages}. Please select the language "
    "from the list that is most similar to {given_language} based on language "
    "family and geographic distance in terms of population distribution."
)


_SCAN = 16  # a run of equal keys at most this long is compared whole, a longer one bisected first

# byte k of _SPREAD[b] is bit 7 - k of b: a byte that np.packbits made of eight 0/1 values, spread back
_SPREAD = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).view("<u8").reshape(-1)


@dataclass(frozen=True)
class DecimalForm:
    """A float64 matrix as integer mantissas over ``10**decimals``, in byte and bit planes.

    A mantissa ``m`` is stored as its zigzag code ``(m << 1) ^ (m >> 63)``,
    which maps 0, -1, 1, -2, ... to 0, 1, 2, 3, ..., so a small mantissa of
    either sign has a small code and no byte repeats its sign. The codes
    take ``8 * (w - 1) + t`` bits: ``w``, from 1 to 8, is the fewest bytes
    that hold the largest code, and ``t``, from 0 to 8, the bits its top
    byte uses. ``byte_planes`` are ``w - 1`` uint8 ``(rows, columns)``
    arrays, plane ``i`` holding byte ``i`` of every little-endian code.
    The top byte is split into its ``t`` bits (the bitshuffle of Masui et
    al., 2015): ``bit_planes[j]`` holds bit ``j`` of every code's top byte,
    packed by ``np.packbits`` along each row into uint8 ``(rows,
    ceil(columns / 8))`` with zero pad bits. A top byte of a few small
    values, mostly 0, thus leaves a few sparse planes that deflate well,
    while the low bytes, which barely compress, can be stored as they are.
    ``negative_zeros`` holds the flat indices of the ``-0.0`` values, whose
    sign a mantissa cannot carry. ``serialize`` finds the form of a matrix
    when it saves one and checks the form it reads.
    """

    decimals: int
    shape: tuple[int, int]
    byte_planes: tuple[np.ndarray, ...]
    bit_planes: tuple[np.ndarray, ...]
    negative_zeros: np.ndarray

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The float64 rows ``ids`` of the matrix, which must be ascending and distinct.

        Only those rows' bytes are read: their codes are assembled, in
        uint32 when they fit in 32 bits and in uint64 otherwise, decoded
        with ``(c >> 1) ^ -(c & 1)``, and each mantissa is converted and
        divided by ``10**decimals`` in one ``np.divide``, as for the whole
        matrix, so every row has the bits it has there.
        """
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("row ids must be ascending and distinct")
        columns = self.shape[1]
        low = len(self.byte_planes)
        codes = np.zeros(len(ids) * columns, dtype="<u4" if low < 4 else "<u8")
        interleaved = codes.view(np.uint8).reshape(-1, codes.itemsize)
        for i, plane in enumerate(self.byte_planes):  # column by column: a transpose copy is about 3x slower
            interleaved[:, i] = plane.take(ids, axis=0).reshape(-1)
        if self.bit_planes:  # eight top bytes at a time, each packed byte spread to its columns
            top = np.zeros((len(ids), -(-columns // 8)), dtype="<u8")
            for j, plane in enumerate(self.bit_planes):
                top |= _SPREAD.take(plane.take(ids, axis=0)) << j
            interleaved[:, low] = top.view(np.uint8)[:, :columns].reshape(-1)
        signed = codes.dtype.str.replace("u", "i")
        mantissas = (codes >> 1).view(signed) ^ -(codes & 1).view(signed)
        block = np.divide(mantissas, float(10**self.decimals)).reshape(len(ids), columns)
        row, column = np.divmod(self.negative_zeros, columns)
        at = np.searchsorted(ids, row)  # where each -0.0's row would sit among ids
        hit = at < len(ids)
        hit[hit] = ids[at[hit]] == row[hit]
        block[at[hit], column[hit]] = -0.0
        return block


def _windows(data: np.ndarray) -> np.ndarray:
    """The read-only big-endian uint64 of every 8 consecutive bytes of the uint8 ``data``, unaligned."""
    windows = np.ndarray((data.size - 7,), dtype=">u8", buffer=data, strides=(1,))
    windows.flags.writeable = False
    return windows


# _MASKS[k] keeps the top k bytes of a uint64
_MASKS = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _prefix_keys(windows: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ``_windows`` at each of ``starts``, as uint64 with the bytes past each of ``lengths`` zeroed."""
    return windows[starts] & _MASKS[np.minimum(lengths, 8)]


def _compare(a, a_starts, a_lengths, b, b_starts, b_lengths, offset: int) -> np.ndarray:
    """-1, 0 or 1 as each token of ``a`` sorts before, equals or sorts after its token of ``b``, bytewise.

    ``a`` and ``b`` are ``_windows`` of two byte strings, and the first
    ``offset`` bytes of each pair, zero-padded, must be equal. Where one of a
    pair ends within those, it is a prefix of the other, and the shorter
    sorts first; the others compare 8 bytes at a time past ``offset``.
    """
    sign = np.sign(a_lengths - b_lengths)
    live = np.flatnonzero(np.minimum(a_lengths, b_lengths) > offset)
    while live.size:
        ka = _prefix_keys(a, a_starts[live] + offset, a_lengths[live] - offset)
        kb = _prefix_keys(b, b_starts[live] + offset, b_lengths[live] - offset)
        differ = ka != kb
        sign[live[differ]] = np.where(ka[differ] < kb[differ], -1, 1)
        offset += 8
        live = live[~differ]
        live = live[np.minimum(a_lengths[live], b_lengths[live]) > offset]
    return sign


def _token_starts(data: np.ndarray) -> np.ndarray:
    """Where each newline-separated token of ``data`` starts, then ``len(data) + 1``; one entry for no tokens."""
    if not data.size:
        return np.zeros(1, dtype=np.int64)
    return np.concatenate(([0], np.flatnonzero(data == 10) + 1, [data.size + 1]))


class EmbeddingTable:
    """Exact-match token-to-vector lookup over tokens kept sorted.

    The tokens are distinct, non-empty, hold no newline, and are kept in
    ascending code-point order, which is also the order of their UTF-8
    bytes; row ``i`` of the matrix is the vector of token ``i``. A table
    built from its matrix is sorted here, rows with tokens. ``source`` is
    the name of the file the table was read from: its name, not its path,
    so a saved model does not depend on where its inputs sit.

    ``tokens`` may also be given as ``token_bytes``, the uint8 UTF-8 bytes
    of the tokens joined by newlines, which is what a model file stores; a
    table read from one keeps them, and decodes ``tokens`` only when they
    are read. Such bytes must already be sorted, and so must the tokens of
    a table given its decimal form alone; the checks below refuse them
    otherwise.

    ``lookup`` finds tokens without a ``dict`` of the table. Each token has
    a key, the big-endian uint64 of its first 8 bytes, zero-padded; in token
    order the keys never decrease. ``np.searchsorted`` finds the run of
    keys equal to a query's. A query of at most 8 bytes is the run's first
    row when their lengths agree; any other is compared, past the key, 8
    bytes at a time and all queries at once, with every row of its run,
    after a bisection of a run of over ``_SCAN`` rows.
    Building a table checks its bytes the same way: UTF-8, keys that never
    decrease, and bytes that strictly increase within each run of equal
    keys, which makes the tokens sorted and distinct; a table that fails is
    a ConfigError.

    A table holds its ``(len(tokens), dimension)`` float64 matrix whole, or
    as a DecimalForm ``form`` alone; the model reader builds the latter, so
    a request to a loaded model pays for the rows it reads, not for the
    table. ``rows(ids)`` gives the same bits either way, and ``matrix`` is
    the whole matrix, which a table held in decimal form builds on first
    read.

    ``form`` is also what a save writes. A save finds the form of a matrix
    the first time and keeps it here, ``False`` if the matrix has none, so
    a table is searched once however many models carry it.
    """

    def __init__(self, tokens, matrix=None, language="", source="", form=None):
        if matrix is None and not isinstance(form, DecimalForm):
            raise ConfigError("an embedding table needs its matrix or its decimal form")
        self._tokens: tuple[str, ...] | None = None
        if isinstance(tokens, np.ndarray):
            data = tokens
            if data.dtype != np.uint8 or data.ndim != 1:
                raise ConfigError(
                    f"embedding table token bytes must be 1-D uint8, got {data.dtype} of shape {data.shape}"
                )
            try:
                data.tobytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"embedding table tokens are not UTF-8: {exc}") from exc
        else:
            tokens = tuple(tokens)
            if matrix is not None:
                order = sorted(range(len(tokens)), key=tokens.__getitem__)
                if order != list(range(len(tokens))):
                    tokens, matrix = tuple(tokens[i] for i in order), matrix[order]
            joined = "\n".join(tokens)
            if joined.count("\n") != max(0, len(tokens) - 1):
                raise ConfigError("embedding table tokens must be non-empty and hold no newlines")
            data = np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)
            self._tokens = tokens
        starts = _token_starts(data)
        lengths = np.diff(starts) - 1
        if (lengths == 0).any():
            raise ConfigError("embedding table tokens must be non-empty and hold no newlines")
        shape = form.shape if matrix is None else matrix.shape
        if len(shape) != 2 or shape[0] != len(lengths):
            raise ConfigError(
                f"an embedding table of {len(lengths)} tokens needs a "
                f"({len(lengths)}, dimension) matrix, got shape {shape}"
            )
        padded = np.concatenate([data, np.zeros(8, dtype=np.uint8)])  # every key reads 8 bytes
        self._windows = _windows(padded)
        self._starts = starts
        self._keys = _prefix_keys(self._windows, starts[:-1], lengths)
        if (self._keys[1:] < self._keys[:-1]).any():
            raise ConfigError("embedding table tokens must be in ascending code-point order")
        tied = np.flatnonzero(self._keys[1:] == self._keys[:-1])
        order = self._compare_rows(tied, self._windows, starts[tied + 1], lengths[tied + 1])
        if (order == 0).any():
            raise ConfigError("embedding table tokens must be distinct")
        if (order > 0).any():
            raise ConfigError("embedding table tokens must be in ascending code-point order")
        self.token_bytes = padded[:-8]  # what a save writes
        self.language = language
        self.source = source
        self.form: DecimalForm | bool | None = form
        self._matrix = matrix

    @property
    def tokens(self) -> tuple[str, ...]:
        """The tokens in ascending order; a table read from a model file decodes them on first read."""
        if self._tokens is None:
            text = self.token_bytes.tobytes().decode("utf-8")
            self._tokens = tuple(text.split("\n")) if text else ()
        return self._tokens

    def lookup(self, tokens: list[str]) -> np.ndarray:
        """The row of each of ``tokens``, -1 for a token the table does not hold.

        No table holds an empty token or one with a newline in it.
        """
        rows = np.full(len(tokens), -1, dtype=np.int64)
        if not (tokens and len(self)):
            return rows
        text = "\n".join(tokens)
        if text.count("\n") != len(tokens) - 1:  # a token holds a newline: look up the others
            held = [i for i, t in enumerate(tokens) if "\n" not in t]
            rows[held] = self.lookup([tokens[i] for i in held])
            return rows
        # a token that is not UTF-8 encodes to bytes no table holds
        query = np.frombuffer(text.encode("utf-8", "surrogatepass") + bytes(8), dtype=np.uint8)
        windows = _windows(query)
        starts = _token_starts(query[:-8])
        lengths = np.diff(starts) - 1
        keys = _prefix_keys(windows, starts[:-1], lengths)
        low = np.minimum(np.searchsorted(self._keys, keys), len(self) - 1)
        keyed = (self._keys[low] == keys) & (lengths > 0)
        # a token of at most 8 bytes is the one of its key and length
        whole = keyed & (lengths <= 8) & (self._starts[low + 1] - self._starts[low] - 1 == lengths)
        rows[whole] = low[whole]
        live = np.flatnonzero(keyed & ~whole)  # longer tokens, and tokens whose first 8 bytes others share
        low, high = low[live], np.searchsorted(self._keys, keys[live], "right")
        starts, lengths = starts[live], lengths[live]
        while (wide := np.flatnonzero(high - low > _SCAN)).size:  # bisect the long runs of equal keys
            mid = (low[wide] + high[wide]) >> 1
            sign = self._compare_rows(mid, windows, starts[wide], lengths[wide])
            low[wide] = np.where(sign < 0, mid + 1, np.where(sign == 0, mid, low[wide]))
            high[wide] = np.where(sign > 0, mid, np.where(sign == 0, mid + 1, high[wide]))
        # then compare each token with every row left in its run, all at once
        width = high - low
        pair = np.repeat(np.arange(live.size), width)
        candidate = np.arange(pair.size) + np.repeat(low - np.cumsum(width) + width, width)
        same = self._compare_rows(candidate, windows, starts[pair], lengths[pair]) == 0
        rows[live[pair[same]]] = candidate[same]
        return rows

    def _compare_rows(self, ids, windows, starts, lengths) -> np.ndarray:
        """``_compare`` of the table's tokens ``ids`` with tokens of ``windows`` whose keys equal theirs."""
        ends = self._starts[ids + 1] - 1
        return _compare(self._windows, self._starts[ids], ends - self._starts[ids], windows, starts, lengths, 8)

    @property
    def matrix(self) -> np.ndarray:
        """The whole float64 matrix; a table held in decimal form builds it on first read."""
        if self._matrix is None:
            self._matrix = self.form.rows(np.arange(len(self)))
        return self._matrix

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The float64 rows ``ids`` (ascending and distinct, as ``np.unique`` gives them)."""
        return self.form.rows(ids) if self._matrix is None else self._matrix[ids]

    @property
    def dimension(self) -> int:
        return (self.form.shape if self._matrix is None else self._matrix.shape)[-1]

    def __len__(self) -> int:
        return len(self._keys)


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


def _fields(text: str, sep: str) -> list[str]:
    """The ``sep``-separated fields of ``text``; runs of spaces count as one."""
    fields = text.split(sep) if text else []
    return [f for f in fields if f] if sep == " " else fields


def _read_vectors(path: Path, sep: str) -> tuple[list[str], np.ndarray]:
    """Every entry's key and vector from a text vector file, in file order.

    With ``sep=" "`` the file is in word-vector format: ``key v1 ... vd``
    lines after an optional ``<count> <dim>`` header on line 1. With
    ``sep=","`` it is CSV: ``key,v1,...,vd`` rows after an optional header
    row on line 1 whose first field is ``id``. Blank lines are skipped, and
    the dimension is the header's, else the first entry's.

    The values stream to ``np.loadtxt``, which parses a float as ``float()``
    does. When it cannot take the file, or its result breaks a rule above (a
    ragged row, no entries, a non-finite value), or a line repeats its
    spaces, a second pass reads one line at a time: it accepts the file or
    raises a FormatError naming the first bad line.
    """
    dim: int | None = None
    keys: list[str] = []

    def entries():
        """(line number, key, values text) of each entry line."""
        nonlocal dim
        with open_input(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip(" \n")
                if not line:
                    continue
                if lineno == 1:
                    head = _fields(line, sep)
                    if sep == "," and head[0].strip() == "id":
                        continue
                    if sep == " " and len(head) == 2 and all(h.isdecimal() for h in head):
                        dim = int(head[1])
                        continue
                key, _, rest = line.partition(sep)
                yield lineno, key.strip() if sep == "," else key, rest

    def values():
        for _, key, rest in entries():
            keys.append(key)
            yield rest

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty input warns; the count check below catches it
            matrix = np.loadtxt(values(), dtype=float, delimiter=sep, comments=None, ndmin=2)
    except ValueError:
        matrix = None
    if (
        matrix is not None
        and keys
        and matrix.shape == (len(keys), dim if dim is not None else matrix.shape[1])
        and matrix.shape[1] > 0
        and np.isfinite(matrix).all()
    ):
        return keys, matrix

    keys, rows = [], []
    for lineno, key, rest in entries():
        fields = _fields(rest, sep)
        if dim is None:
            if not fields:
                raise FormatError(f"{path}: line {lineno} has a token but no vector values")
            dim = len(fields)
        if len(fields) != dim:
            raise FormatError(f"{path}: line {lineno} has {len(fields)} values, expected {dim}")
        keys.append(key)
        rows.append(_parse_vector(fields, path, lineno))
    if not keys:
        raise FormatError(f"{path}: no vector entries found")
    return keys, np.vstack(rows)


def load_word_vectors(path: str | Path, language: str = "") -> EmbeddingTable:
    """Parse a text word-vector file into an EmbeddingTable.

    The first line may be a ``<count> <dim>`` header; otherwise the dimension
    is taken from the first data line. A later duplicate of a token
    overwrites the earlier entry. Any line whose value count disagrees with
    the established dimension raises FormatError with its line number.
    The table sorts the tokens that remain (see EmbeddingTable).
    """
    path = Path(path)
    tokens, matrix = _read_vectors(path, " ")
    rows = {t: i for i, t in enumerate(tokens)}  # first-seen order, last row wins
    if len(rows) < len(tokens):
        matrix = matrix[list(rows.values())]
    return EmbeddingTable(tuple(rows), matrix, language=language, source=path.name)


def embed_documents(docs, table: EmbeddingTable) -> tuple[np.ndarray, OovReport]:
    """Mean-pool token vectors into one row per document.

    Returns the (n_docs, dimension) matrix and an OovReport counting dropped
    tokens and fully out-of-vocabulary documents. The table is asked once
    for the rows of the call's distinct tokens (``table.lookup``), and only
    the distinct rows the documents hit are read (``table.rows``), so a
    table held in decimal form restores just those. The sums are one
    product of a CSR hit-count matrix over those rows, built in token
    order, with them: scipy adds each row's hits in that order, starting
    from zero, as ``np.mean(hits, axis=0)`` does for a table of dimension 2
    or more, so the rows are bit-identical to it (at dimension 1 numpy's
    mean sums pairwise, which can round differently from the in-order sum).
    """
    if len(table) == 0:
        raise ConfigError("embedding table is empty")
    seqs = [tokens_of(doc) for doc in docs]
    flat = list(chain.from_iterable(seqs))
    first: dict[str, int] = {}  # each distinct token -> where it first occurs in flat
    occurrence = np.fromiter(map(first.setdefault, flat, count()), dtype=np.int64, count=len(flat))
    row_at = np.empty(len(flat), dtype=np.int64)
    row_at[np.fromiter(first.values(), dtype=np.int64, count=len(first))] = table.lookup(list(first))
    token_rows = row_at[occurrence]  # each token's row, -1 out of vocabulary
    hit = token_rows >= 0
    ends = np.cumsum(np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs)))
    indptr = np.concatenate(([0], np.cumsum(hit)))[np.concatenate(([0], ends))]
    counts = np.diff(indptr)
    ids, columns = np.unique(token_rows[hit], return_inverse=True)
    hit_matrix = sp.csr_matrix(
        (np.ones(len(columns)), columns, indptr),
        shape=(len(counts), len(ids)),
    )
    sums = hit_matrix @ table.rows(ids)
    rows = np.zeros_like(sums)
    np.divide(sums, counts[:, None], out=rows, where=counts[:, None] > 0)
    return rows, OovReport(
        n_documents=len(counts),
        n_fully_oov=int((counts == 0).sum()),
        n_tokens=len(flat),
        n_oov_tokens=len(flat) - len(columns),
    )


def load_precomputed_embeddings(path: str | Path, ids: list[str]) -> np.ndarray:
    """Load external sentence vectors and align rows to the given id order.

    Accepts CSV ``id,v1,...,vd`` (a header row on line 1 optional) or the
    word-vector format keyed by id; a comma in the first non-blank line means
    CSV. Every expected id must be present exactly once; extra ids in the
    file are ignored.
    """
    path = Path(path)
    with open_input(path) as fh:
        first = next((line for line in fh if line.strip()), "")
    keys, matrix = _read_vectors(path, "," if "," in first else " ")
    rows: dict[str, int] = {}
    for i, key in enumerate(keys):
        if key in rows:
            raise AlignmentError(f"{path}: duplicate embedding for id {key!r}")
        rows[key] = i

    missing = [i for i in ids if i not in rows]
    if missing:
        shown = ", ".join(repr(m) for m in missing[:10])
        more = "" if len(missing) <= 10 else f" (and {len(missing) - 10} more)"
        raise AlignmentError(f"{path}: missing embeddings for ids {shown}{more}")
    return matrix[[rows[i] for i in ids]]


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
    import http.client  # imported here, as only a live backend query needs them
    import urllib.request

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
        request = urllib.request.Request(
            endpoint, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
        )
        with urllib.request.urlopen(request, timeout=config.timeout_seconds) as resp:
            status, raw = resp.status, resp.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        # URLError, HTTPError and timeouts are OSErrors; a bad URL is a ValueError
        raise TransportError(f"chat-completion request failed: {exc}") from exc
    if not 200 <= status < 300:
        raise TransportError(f"chat-completion request failed: HTTP status {status}")
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise TransportError(f"malformed chat-completion reply: {raw[:200]!r}") from exc
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
    with open_input(p) as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
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
    if lang in policy.supported_languages:
        return lang, "native"
    if lang in policy.static_map:
        return policy.static_map[lang], "static"
    if policy.cache_path:
        cached = _cache_read(policy.cache_path).get(lang)
        if cached is not None:
            return cached, "llm"
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
