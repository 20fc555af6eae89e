"""Pickle-free persistence for fitted models.

Everything is stored in a single file: numeric arrays as members, and the
object structure as a JSON header that names each member by its index.
Loading never unpickles, so a model file cannot execute code. Each
registered class encodes to a dict of plain values, containers, arrays, and
other registered objects, and the JSON names it by its class name.

Codecs come from one table (``_REGISTRY``). A plain dataclass stores its
fields in declaration order and decodes as ``cls(**fields)``; a learner
stores its spec and the state ``_LEARNERS`` lists for it
(``_learner_codec``). The table also names the fields each encoder writes
and the kind of value each holds, so a load refuses an object node whose
fields are not those before any decoder calls a method on them.

Layout (format 8). A tree or forest stores only what its reader cannot
derive: the feature, threshold and right child of each internal node, the
node-kind bits and the packed leaf values, plus a forest's per-tree node
counts, so a forest is six members whatever its tree count (see
``_tree_layout``, and ``_decode_tree`` for the checks a load makes).

A token list is one uint8 member holding the UTF-8 bytes of its tokens
joined by newlines: a vocabulary is that member (in column order) plus its
int64 document frequencies, and an external-vocab tokenizer's list takes one
too. No per-token or per-tree structure goes through the JSON document.

A word-vector table is its token list, sorted in code-point order, which
is UTF-8 byte order, plus its ``(tokens, dimension)`` matrix, rows in token
order, so a load can search the token bytes in place (see
``dense_features.EmbeddingTable``). A text vector file holds fixed-point
decimals, so a matrix that is exactly integer mantissas over
``10**decimals`` for some ``decimals`` in 0..9 is stored as a
``DecimalForm`` (``_decimal_form``): the zigzag codes of the mantissas as
byte planes below their top byte and bit planes of the bits that byte uses,
from which a request restores only the rows it reads. A table without such
a form keeps its float64 matrix. The form is found once per table object,
and a table read from a model file is written back in the form it was read
in.

Each table plane is deflated at level 3 when deflate earns its keep
(``_plane_setting``): the low byte planes barely compress and are written
in stored blocks, which inflate as a plain copy; the sparse bit planes of
the top byte deflate to a fraction. Any other float64 member of over 64
KiB whose values a probe finds shuffle well (``_shuffles``) is stored as
the uint8 ``(8, values)`` byte planes of its data, the "shuffle" filter of
Blosc, after which the bytes that barely vary (signs, exponents, high
bytes) sit together and deflate far better than the interleaved values.
The JSON names it with a ``shuffled`` node that records its shape and
order. Mostly-zero matrices fail the probe and stay plain.

The container (``_PREFIX``) is a fixed prefix: a magic, the format version,
and the deflated header's length, size and CRC-32. The raw-deflated JSON
header follows. It holds ``root``, the node tree, and ``members``: per
member its dtype code, shape, ``fortran_order``, compressed length, size
and CRC-32. The payloads follow in member order, each the raw deflate of
the array's data alone, in C order or, for an array that is only
Fortran-contiguous, Fortran order; the file ends at the last one. The ``.npz`` suffix
the runner gives model files is historical: a model file has not been a zip
archive since format 7. A member's deflate setting (``_deflate``) depends
on the member alone, so equal models give equal files.

``save_model`` takes an optional memo, keyed by object: each array, token
list or table plane a save encodes is deflated then, and the memo keeps its
node, header entry and payload, so a later save under the same memo repeats
no probe, shuffle or deflate for a live object it has seen (see
``_member``). The runner keeps one memo per run of (language,
representation) groups that share a word-vector table, and one per group
otherwise, so the table that every model of such a run carries is deflated
once per run rather than once per cell.

``load_model`` reads a file in one pass, one inflate per member, and never
holds more than one member's payload (see ``_read_model`` and
``_read_member``). The prefix carries the format version; a mismatch raises
FormatError instead of guessing, so files of format 1 to 6, which were zip
archives, and of format 7, whose token lists are unsorted, must be refit. A
damaged file, whether in its container, its header or a node or member that
its codec refuses, is a FormatError naming the file and, where one is at
fault, the member, never a traceback.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import weakref
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from .atomic import atomic_open
from .dense_features import DecimalForm, EmbeddingTable
from .errors import ConfigError, FormatError
from .learn import (
    CLASSIFIER_CLASSES,
    ClassifierSpec,
    DecisionTree,
    KNearestNeighbors,
    LinearSvm,
    Mlp,
    RandomForest,
    VotingEnsemble,
)
from .learn.neighbors import neighbor_count
from .pipeline import PipelineModel
from .reduce import PcaModel
from .sparse_features import TfidfModel, Vocabulary
from .tokenize import TokenizerSpec

FORMAT_VERSION = 8  # 8: sorted word-vector token lists, and trees without their derivable arrays

# the magic (its first byte is not ASCII, so no text file starts with it), the format version,
# and the deflated header's length, size and CRC-32
_PREFIX = struct.Struct("<8sI2QI")
_MAGIC = b"\x93polyemo"

_PROBE_FLOOR = 64 << 10  # a float64 member or a table plane of more bytes than this is probed
_PROBE_SLICES, _PROBE_SLICE_BYTES = 8, 8 << 10  # eight slices of 8 KiB

# (level, strategy) of zlib's deflate for a member: zlib's default, a
# word-vector table plane that deflates well, one that does not (stored
# blocks), and a shuffled float64 member (Z_RLE ignores the level)
_DEFAULT = (zlib.Z_DEFAULT_COMPRESSION, zlib.Z_DEFAULT_STRATEGY)
_TABLE = (3, zlib.Z_DEFAULT_STRATEGY)
_STORED = (0, zlib.Z_DEFAULT_STRATEGY)
_SHUFFLED = (1, zlib.Z_RLE)


def _deflated_size(data: bytes, setting: tuple[int, int]) -> int:
    compressor = zlib.compressobj(setting[0], zlib.DEFLATED, -15, 8, setting[1])
    return len(compressor.compress(data)) + len(compressor.flush())


def _probe_sample(values: np.ndarray) -> np.ndarray:
    """Eight 8 KiB slices spread evenly over the flat ``values`` of a member of over 64 KiB, joined."""
    count = _PROBE_SLICE_BYTES // values.itemsize
    step = (values.size - count) // (_PROBE_SLICES - 1)
    return np.concatenate([values[i * step : i * step + count] for i in range(_PROBE_SLICES)])


def _byte_planes(values: np.ndarray) -> np.ndarray:
    """The uint8 ``(8, n)`` planes of ``n`` float64 values: plane ``i`` is byte ``i`` of each."""
    return np.ascontiguousarray(values.view(np.uint8).reshape(-1, 8).T)


def _shuffles(values: np.ndarray) -> bool:
    """Whether the float64 ``values`` of a member of over 64 KiB are stored as their 8 byte planes.

    The probe sample is deflated at level 1 as it is, and its byte planes
    with ``Z_RLE``; the member is shuffled when the planes come out
    smaller. On dense values (PCA components, network weights) the
    sign-and-exponent planes repeat and the mantissa planes are coded
    alone, so the planes deflate smaller and several times faster than the
    values at zlib's default level, and inflate faster too. On mostly-zero
    values LZ77 does better on the values, and they stay plain.
    """
    sample = _probe_sample(values)
    planes = _deflated_size(_byte_planes(sample).tobytes(), _SHUFFLED)
    return planes < _deflated_size(sample.tobytes(), (1, zlib.Z_DEFAULT_STRATEGY))


def _plane_setting(plane: np.ndarray) -> tuple[int, int]:
    """``_TABLE`` for a word-vector table plane that deflate shrinks by a quarter or more, else ``_STORED``.

    A plane of 64 KiB or less is deflated at ``_TABLE`` unprobed. A larger
    one is when its probe sample deflates at ``_TABLE`` to at most three
    quarters of its bytes; otherwise it is written in stored blocks, which
    inflate as a plain copy. The low byte planes of a table barely compress
    and are stored; the sparse bit planes of its top byte deflate.
    """
    if plane.nbytes <= _PROBE_FLOOR:
        return _TABLE
    sample = _probe_sample(plane.reshape(-1)).tobytes()
    return _TABLE if 4 * _deflated_size(sample, _TABLE) <= 3 * len(sample) else _STORED


@dataclasses.dataclass(frozen=True)
class _Encoded:
    """A value a codec hands on with its encoding: a table plane, a token list, or a stored tree array."""

    source: object
    encoding: Callable[[object], tuple[dict, np.ndarray, tuple[int, int]]]


def _array_encoding(array: np.ndarray) -> tuple[dict, np.ndarray, tuple[int, int]]:
    """The node, stored array and deflate setting of an array: itself, or the byte planes of values that ``_shuffles``.

    The planes are of the values in the order a member holds them (``_data``):
    C order, or Fortran order for an array that is only Fortran-contiguous.
    """
    if array.dtype == np.dtype("<f8") and array.nbytes > _PROBE_FLOOR:
        fortran_order = array.flags.f_contiguous and not array.flags.c_contiguous
        values = array.ravel(order="F" if fortran_order else "C")
        if _shuffles(values):
            node = {
                "__kind__": "shuffled",
                "member": None,
                "shape": list(array.shape),
                "fortran_order": fortran_order,
            }
            return node, _byte_planes(values), _SHUFFLED
    return _plain_encoding(array)


def _plain_encoding(array: np.ndarray) -> tuple[dict, np.ndarray, tuple[int, int]]:
    """The node, stored array and deflate setting of an array stored as it is, at ``_DEFAULT`` and unprobed."""
    return {"__kind__": "array", "member": None}, array, _DEFAULT


def _plane_encoding(plane: np.ndarray) -> tuple[dict, np.ndarray, tuple[int, int]]:
    """The node, stored array and deflate setting of a word-vector table plane: its ``_plane_setting``."""
    return {"__kind__": "array", "member": None}, plane, _plane_setting(plane)


def _token_encoding(tokens) -> tuple[dict, np.ndarray, tuple[int, int]]:
    """The node, stored array and deflate setting of a token list: its ``_token_member`` at ``_DEFAULT``."""
    return _plain_encoding(_token_member(tokens))


def _reference(source):
    """A weak reference to ``source`` if it takes one (an array), else a strong one (a token list)."""
    try:
        return weakref.ref(source)
    except TypeError:
        return lambda: source


def _member(source, encoding, members: list, memo: dict) -> dict:
    """The node of ``source``, whose header entry and payload are appended to ``members`` and named by its index.

    ``encoding(source)`` gives the node, the array to store and its deflate
    setting, and the array is deflated there and then. Both run once per
    source object under ``memo``: later saves under the same memo take the
    node, entry and payload from there. The memo refers to an array weakly,
    so it keeps none alive, and an entry whose object has died is never
    taken for a new object that got its id.
    """
    cached = memo.get((encoding, id(source)))
    if cached is None or cached[0]() is not source:
        node, array, setting = encoding(source)
        fortran_order, data = _data(array)
        payload, sizes = _deflate(data, setting)
        entry = {"dtype": array.dtype.str, "shape": list(array.shape), "fortran_order": fortran_order, **sizes}
        cached = memo[encoding, id(source)] = (_reference(source), node, entry, payload)
    _, node, entry, payload = cached
    members.append((entry, payload))
    return {**node, "member": len(members) - 1}


def _encode_node(value, members: list, memo: dict):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return _member(value, _array_encoding, members, memo)
    if isinstance(value, _Encoded):
        return _member(value.source, value.encoding, members, memo)
    if isinstance(value, list):
        return {"__kind__": "list", "items": [_encode_node(v, members, memo) for v in value]}
    if isinstance(value, tuple):
        return {"__kind__": "tuple", "items": [_encode_node(v, members, memo) for v in value]}
    if isinstance(value, dict):
        items = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise ConfigError(f"only string dict keys can be serialized, got {k!r}")
            items[k] = _encode_node(v, members, memo)
        return {"__kind__": "dict", "items": items}
    type_name = type(value).__name__
    if type_name not in _REGISTRY:
        raise ConfigError(f"cannot serialize object of type {type_name}")
    encode = _REGISTRY[type_name][0]
    fields = {k: _encode_node(v, members, memo) for k, v in encode(value).items()}
    return {"__kind__": "object", "type": type_name, "fields": fields}


def _unshuffled(node: dict, planes: np.ndarray) -> np.ndarray:
    """The read-only float64 array of a ``shuffled`` node; FormatError if ``planes`` are not 8 planes of it."""
    shape, fortran_order = node.get("shape"), node.get("fortran_order")
    if not (
        isinstance(shape, list)
        and all(type(d) is int and d >= 0 for d in shape)
        and isinstance(fortran_order, bool)
    ):
        raise FormatError(f"malformed shuffled node {node!r}")
    count = math.prod(shape)
    if not (planes.dtype == np.uint8 and planes.shape == (8, count)):
        raise FormatError(
            f"shuffled member {node['member']!r} of shape {shape} needs 8 uint8 byte planes "
            f"of {count} values, got {planes.dtype} of shape {planes.shape}"
        )
    values = np.ascontiguousarray(planes.T).view("<f8").reshape(shape, order="F" if fortran_order else "C")
    values.flags.writeable = False
    return values


class _MemberError(FormatError):
    """A codec's refusal of the array in its field ``field`` (item ``index`` of a list there)."""

    def __init__(self, message: str, field: str, index: int | None = None):
        super().__init__(message)
        self.field, self.index = field, index


def _decode_node(node, arrays: list):
    """The value of JSON ``node``, whose array nodes name members of ``arrays``; FormatError if it is malformed."""
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if not isinstance(node, dict):
        raise FormatError(f"malformed model node {node!r:.200}")
    kind, items = node.get("__kind__"), node.get("items")
    if kind in ("array", "shuffled"):
        index = node.get("member")
        if type(index) is not int or not 0 <= index < len(arrays):
            raise FormatError(f"model structure names a missing member {index!r}")
        return arrays[index] if kind == "array" else _unshuffled(node, arrays[index])
    if kind in ("list", "tuple") and isinstance(items, list):
        values = [_decode_node(v, arrays) for v in items]
        return values if kind == "list" else tuple(values)
    if kind == "dict" and isinstance(items, dict):
        return {k: _decode_node(v, arrays) for k, v in items.items()}
    if kind == "object":
        return _decode_object(node, arrays)
    raise FormatError(f"malformed model node {node!r:.200}")


def _holds(value, kind) -> bool:
    """Whether ``value`` is of ``kind``: a type or tuple of types, as ``isinstance`` takes, or ``[item kind]``."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_holds(item, kind[0]) for item in value)
    return isinstance(value, kind)


def _kind_name(kind) -> str:
    if isinstance(kind, list):
        return f"a list of {_kind_name(kind[0])}"
    kinds = kind if isinstance(kind, tuple) else (kind,)
    names = {np.ndarray: "an array", int: "an int", str: "a string", bool: "a bool", type(None): "null"}
    return " or ".join(names.get(k, k.__name__) for k in kinds)


def _decode_object(node: dict, arrays: list):
    """The registered object of an ``object`` node; FormatError if its fields are not its type's, not of their
    kinds, or refused by its decoder."""
    type_name, fields = node.get("type"), node.get("fields")
    if not (isinstance(type_name, str) and type_name in _REGISTRY):
        raise FormatError(f"model file references unknown type {type_name!r:.200}")
    _, decode, kinds = _REGISTRY[type_name]
    if not (isinstance(fields, dict) and fields.keys() == kinds.keys()):
        found = list(fields) if isinstance(fields, dict) else fields
        raise FormatError(f"a {type_name} node needs the fields {list(kinds)}, got {found!r:.200}")
    values = {k: _decode_node(v, arrays) for k, v in fields.items()}
    for name, kind in kinds.items():
        if not _holds(values[name], kind):
            raise FormatError(
                f"the {name} field of a {type_name} node must hold {_kind_name(kind)}, "
                f"got {type(values[name]).__name__}"
            )
    try:
        return decode(values)
    except _MemberError as exc:  # name the member the refused array was read from
        child = fields[exc.field]
        if exc.index is not None:
            child = child["items"][exc.index]
        raise FormatError(f"member {child['member']!r}: {exc}") from exc
    except ConfigError as exc:  # a value its type refuses, such as a spec of an unknown kind
        raise FormatError(f"a {type_name} node: {exc}") from exc


def _data(array: np.ndarray) -> tuple[bool, np.ndarray]:
    """``(fortran_order, data)``: a C-contiguous array whose buffer holds ``array``'s values in member order.

    An array that is only Fortran-contiguous is stored in Fortran order, as
    its transpose's buffer; any other in C order, and only a non-contiguous
    one is copied.
    """
    if array.flags.c_contiguous:
        return False, array
    if array.flags.f_contiguous:
        return True, array.T
    return False, np.ascontiguousarray(array)


def _deflate(data, setting: tuple[int, int]) -> tuple[bytes, dict]:
    """The raw deflate of the bytes of ``data`` at ``setting``, a (level, strategy) pair, and its entry fields.

    The encoder picks the setting from the member alone: ``_TABLE`` or
    ``_STORED`` for a word-vector table plane (``_plane_setting``),
    ``_SHUFFLED`` for the planes of a float64 member that ``_shuffles``, and
    ``_DEFAULT`` for every other member and the header. The fields are the
    payload's length and the size and CRC-32 of ``data``.
    """
    compressor = zlib.compressobj(setting[0], zlib.DEFLATED, -15, 8, setting[1])
    payload = compressor.compress(data) + compressor.flush()
    return payload, {"length": len(payload), "size": data.nbytes, "crc": zlib.crc32(data)}


def save_model(obj, path: str | Path, memo: dict | None = None) -> None:
    """Write any registered object (and everything it references) to ``path``.

    Pass the same ``memo`` dict to several saves and each array object (or
    token list) is encoded and deflated once across them: the memo holds,
    by object, the node, header entry and payload of each, so a later save
    of the same live object repeats no probe, shuffle or deflate. An array
    must not change while a memo that has seen it is in use. The memo holds
    every payload it has made, so drop it when its saves are done.

    The file is replaced whole or not at all: a failed save leaves the
    previous model in place.
    """
    memo = {} if memo is None else memo
    members: list[tuple[dict, bytes]] = []
    root = _encode_node(obj, members, memo)
    header = json.dumps({"root": root, "members": [entry for entry, _ in members]}).encode("utf-8")
    packed, sizes = _deflate(memoryview(header), _DEFAULT)
    with atomic_open(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, FORMAT_VERSION, sizes["length"], sizes["size"], sizes["crc"]))
        fh.write(packed)
        for _, payload in members:
            fh.write(payload)


# the dtypes a member may hold, by their code: bool, integer and float, never object, so nothing is unpickled
_DTYPES = {
    dtype.str: dtype
    for code in ("b1", "i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8", "f2", "f4", "f8")
    for dtype in (np.dtype("<" + code), np.dtype(">" + code))
}
_ENTRY = {"dtype", "shape", "fortran_order", "length", "size", "crc"}
# a deflate match (at most 258 bytes) takes at least 2 bits: a payload inflates to <= 1032x its size
_MAX_INFLATE = 1032


def _inflate(fh, length: int, size: int, crc: int) -> bytes:
    """The next ``length`` bytes of ``fh`` inflated, their size and CRC-32 checked.

    A payload that runs past the end of the file, or a short or damaged one,
    raises ValueError or zlib.error.
    """
    payload = fh.read(length)
    if len(payload) != length:
        raise ValueError(f"its {length} bytes run past the end of the file")
    # a damaged size cannot make the inflate reserve more than the payload can hold
    data = zlib.decompress(payload, -15, min(size, _MAX_INFLATE * length))
    if len(data) != size:
        raise ValueError(f"inflates to {len(data)} bytes, not {size}")
    if zlib.crc32(data) != crc:
        raise ValueError("bad CRC-32")
    return data


def _read_member(fh, entry) -> np.ndarray:
    """The read-only array of header entry ``entry``, inflated from the next payload of ``fh``.

    ValueError or zlib.error if the entry is malformed, its dtype is not in
    ``_DTYPES`` or its size does not fit its shape, or the payload is damaged.
    """
    if not (isinstance(entry, dict) and entry.keys() == _ENTRY):
        raise ValueError(f"malformed entry {entry!r:.200}")
    code, shape, length, size, crc = (entry[k] for k in ("dtype", "shape", "length", "size", "crc"))
    dtype = _DTYPES.get(code) if isinstance(code, str) else None
    if dtype is None:
        raise ValueError(f"dtype {code!r:.40} is not a bool, integer or float type (a model is never unpickled)")
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"shape {shape!r:.200} is not a list of non-negative ints")
    if not (isinstance(entry["fortran_order"], bool) and all(type(v) is int and v >= 0 for v in (length, size, crc))):
        raise ValueError(f"malformed entry {entry!r:.200}")
    if size != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"size {size} is not that of shape {tuple(shape)} of {dtype.str}")
    data = _inflate(fh, length, size, crc)
    return np.frombuffer(data, dtype).reshape(shape, order="F" if entry["fortran_order"] else "C")


def _read_model(fh) -> tuple[object, list[np.ndarray]]:
    """The structure and the arrays of the model file open as ``fh``; FormatError if it is not one of this format.

    The arrays are read one at a time, so only one member's payload is held
    at a time. The file must end at the last payload.
    """
    prefix = fh.read(_PREFIX.size)
    if len(prefix) != _PREFIX.size or prefix[:8] != _MAGIC:
        raise FormatError(f"not a model file (it starts {prefix[:8]!r}); a model of format 1 to 6 must be refit")
    _, version, length, size, crc = _PREFIX.unpack(prefix)
    if version != FORMAT_VERSION:
        raise FormatError(
            f"model format version {version} is not supported (this build reads version {FORMAT_VERSION})"
        )
    try:  # a JSONDecodeError or UnicodeDecodeError is a ValueError
        header = json.loads(_inflate(fh, length, size, crc))
    except (ValueError, zlib.error) as exc:
        raise FormatError(f"damaged model header: {exc}") from exc
    if not (isinstance(header, dict) and header.keys() == {"root", "members"} and isinstance(header["members"], list)):
        raise FormatError("malformed model header: it needs a root and a list of members")
    arrays = []
    for i, entry in enumerate(header["members"]):
        try:
            arrays.append(_read_member(fh, entry))
        except (ValueError, zlib.error) as exc:
            raise FormatError(f"damaged model member {i}: {exc}") from exc
    if fh.read(1):
        raise FormatError("damaged model file: bytes after the last member")
    return header["root"], arrays


def load_model(path: str | Path):
    """Read back an object written by save_model; never unpickles.

    A file that is not a model of this format, or is damaged, raises
    FormatError naming ``path``. Its arrays are read-only.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            root, arrays = _read_model(fh)
        return _decode_node(root, arrays)
    except OSError as exc:
        raise FormatError(f"cannot read model {path}: {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# the codec table


def _token_member(tokens) -> np.ndarray:
    """A token list as one uint8 member: the UTF-8 bytes of the tokens joined by newlines."""
    joined = "\n".join(tokens)
    if tokens and ("" in tokens or joined.count("\n") != len(tokens) - 1):
        raise ConfigError("only non-empty tokens without newlines can be serialized")
    return np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)


def _member_tokens(member: np.ndarray) -> tuple[str, ...]:
    try:
        text = member.tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"corrupt token list: {exc}") from exc
    return tuple(text.split("\n")) if text else ()


def _dataclass_fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _encode_vocabulary(v):
    tokens = v.tokens  # in column order
    return {
        "tokens": _Encoded(tokens, _token_encoding),
        "document_frequency": np.array([v.document_frequency[t] for t in tokens], dtype=np.int64),
        "corpus_size": v.corpus_size,
    }


def _decode_vocabulary(f):
    tokens = _member_tokens(f["tokens"])
    frequencies = f["document_frequency"]
    if frequencies.shape != (len(tokens),):
        raise _MemberError(
            f"document frequencies must be 1-D, one per token: shape {frequencies.shape} for {len(tokens)} tokens",
            "document_frequency",
        )
    return Vocabulary(
        index={t: i for i, t in enumerate(tokens)},
        document_frequency=dict(zip(tokens, frequencies.tolist())),
        corpus_size=f["corpus_size"],
    )


def _decode_tfidf(f):
    idf, tokens = f["idf"], len(f["vocabulary"])
    if idf.shape != (tokens,):
        raise _MemberError(f"idf must be 1-D, one weight per token: shape {idf.shape} for {tokens} tokens", "idf")
    return TfidfModel(**f)


def _decode_pca(f):
    """The PcaModel of ``f``, whose ``components`` must be ``(k >= 1, d)``, ``mean`` ``(d,)`` and variances ``(k,)``."""
    components = f["components"]
    if components.ndim != 2 or components.shape[0] < 1:
        raise _MemberError(f"pca components must have shape (k >= 1, d): shape {components.shape}", "components")
    k, d = components.shape
    for name, shape in (("mean", (d,)), ("explained_variance", (k,)), ("explained_variance_ratio", (k,))):
        if f[name].shape != shape:
            message = f"pca {name} must have shape {shape}: shape {f[name].shape} for components of shape {(k, d)}"
            raise _MemberError(message, name)
    return PcaModel(**f)


MAX_DECIMALS = 9
_BLOCK_VALUES = 1 << 16  # values per row block of the search and the build


def _row_blocks(matrix: np.ndarray):
    """``(first row, block)`` for row blocks of about ``_BLOCK_VALUES`` values."""
    rows = max(1, _BLOCK_VALUES // max(1, matrix.shape[1]))
    for start in range(0, matrix.shape[0], rows):
        yield start, matrix[start : start + rows]


def _exact_mantissas(block: np.ndarray, scale: float) -> np.ndarray | None:
    """``rint(block * scale)`` if dividing it by ``scale`` gives ``block`` back, else None.

    ``==`` equates ``-0.0`` with ``0.0``; their signs are restored apart.
    Mantissas must fit int64, which also turns away non-finite values.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # such values fail the checks below
        mantissas = np.rint(block * scale)
    if mantissas.size and not np.abs(mantissas).max() < 2.0**63:
        return None
    return mantissas if np.array_equal(mantissas / scale, block) else None


def _decimal_form(matrix: np.ndarray) -> DecimalForm | None:
    """``matrix`` as a DecimalForm with the fewest decimals, or None if it has none in 0..9.

    One pass over row blocks: a block that is not exact at ``decimals``
    raises it and restarts the pass, so every block is checked at the
    decimals finally chosen. A second pass writes the zigzag codes
    ``(m << 1) ^ (m >> 63)`` of the mantissas ``m``: as many low byte
    planes as the largest code needs below its top byte, and that top byte,
    which is then split into one packed bit plane per bit the largest code
    uses there. Neither pass allocates a temporary the size of the matrix.
    """
    if matrix.dtype != np.float64 or matrix.ndim != 2:
        return None
    decimals, lo, hi = 0, 0.0, 0.0
    blocks = list(_row_blocks(matrix))
    k = 0
    while k < len(blocks):
        mantissas = _exact_mantissas(blocks[k][1], float(10**decimals))
        if mantissas is None:
            decimals += 1
            if decimals > MAX_DECIMALS:
                return None
            k, lo, hi = 0, 0.0, 0.0
            continue
        if mantissas.size:
            lo, hi = min(lo, mantissas.min()), max(hi, mantissas.max())
        k += 1
    bits = max(2 * int(hi), -2 * int(lo) - 1).bit_length()  # of the larger extreme's zigzag code
    low = max(0, bits - 1) // 8  # the bytes below the top one
    scale = float(10**decimals)
    byte_planes = np.empty((low,) + matrix.shape, dtype=np.uint8)
    top = np.empty(matrix.shape, dtype=np.uint8)
    negative_zeros = [np.empty(0, dtype=np.int64)]
    for start, block in blocks:
        ints = np.rint(block * scale).astype("<i8")
        codes = ((ints << 1) ^ (ints >> 63)).view(np.uint8).reshape(block.shape + (8,))
        byte_planes[:, start : start + len(block)] = np.moveaxis(codes[..., :low], -1, 0)
        top[start : start + len(block)] = codes[..., low]
        signed_zeros = np.flatnonzero((block == 0) & np.signbit(block))
        negative_zeros.append(signed_zeros + start * matrix.shape[1])
    bit_planes = tuple(np.packbits((top >> j) & 1, axis=1) for j in range(bits - 8 * low))
    return DecimalForm(decimals, matrix.shape, tuple(byte_planes), bit_planes, np.concatenate(negative_zeros))


def _encode_form(form: DecimalForm) -> dict:
    return {
        "decimals": form.decimals,
        "shape": form.shape,
        "byte_planes": [_Encoded(plane, _plane_encoding) for plane in form.byte_planes],
        "bit_planes": [_Encoded(plane, _plane_encoding) for plane in form.bit_planes],
        "negative_zeros": form.negative_zeros,
    }


def _decode_form(f) -> DecimalForm:
    """A stored DecimalForm; FormatError if its fields do not fit one, naming the member at fault.

    Every check is made here, while the model loads, though no row is
    restored: each plane's dtype and shape, the pad bits of each bit plane,
    which must be zero, and each negative-zero index, which must name a
    value whose code bits are all zero in every plane.
    """
    decimals, shape, negative_zeros = f["decimals"], f["shape"], f["negative_zeros"]
    if type(decimals) is not int or not 0 <= decimals <= MAX_DECIMALS:
        raise FormatError(f"embedding table decimals {decimals!r} outside 0..{MAX_DECIMALS}")
    if not (type(shape) is tuple and len(shape) == 2 and all(type(d) is int and d >= 0 for d in shape)):
        raise FormatError(f"malformed embedding table shape {shape!r}")
    rows, columns = shape
    # field -> (what one plane is called, most planes, shape of a plane)
    kinds = {
        "byte_planes": ("byte plane", 7, shape),
        "bit_planes": ("bit plane", 8, (rows, -(-columns // 8))),
    }
    for field, (kind, most, plane_shape) in kinds.items():
        planes = f[field]
        if not (isinstance(planes, list) and len(planes) <= most and all(isinstance(p, np.ndarray) for p in planes)):
            raise FormatError(f"embedding table {kind}s must be a list of at most {most} arrays")
        for i, plane in enumerate(planes):
            if plane.dtype != np.uint8 or plane.shape != plane_shape:
                raise _MemberError(
                    f"{kind} {i} of a {rows} x {columns} embedding table must be uint8 of shape "
                    f"{plane_shape}, got {plane.dtype} of shape {plane.shape}",
                    field,
                    i,
                )
    pad = 0xFF >> columns % 8 if columns % 8 else 0  # the low bits of a row's last byte
    for i, plane in enumerate(f["bit_planes"]):
        if pad and (plane[:, -1] & pad).any():
            raise _MemberError(f"bit plane {i} of the embedding table has nonzero pad bits", "bit_planes", i)
    if not (
        isinstance(negative_zeros, np.ndarray)
        and negative_zeros.dtype == np.int64
        and negative_zeros.ndim == 1
        and ((0 <= negative_zeros) & (negative_zeros < rows * columns)).all()
    ):
        message = "embedding table negative-zero indices must be int64 indices of its values"
        if isinstance(negative_zeros, np.ndarray):
            raise _MemberError(message, "negative_zeros")
        raise FormatError(message)
    if negative_zeros.size:
        row, column = np.divmod(negative_zeros, columns)
        packed, bit = (row, column >> 3), 0x80 >> (column & 7)  # each -0.0's byte and bit in a bit plane
        bits_at = {
            "byte_planes": lambda plane: plane.reshape(-1)[negative_zeros],
            "bit_planes": lambda plane: plane[packed] & bit,
        }
        for field, (kind, _, _) in kinds.items():
            for i, plane in enumerate(f[field]):
                if bits_at[field](plane).any():
                    raise _MemberError(
                        f"an embedding table negative-zero index names a set bit of its {kind} {i}", field, i
                    )
    return DecimalForm(decimals, shape, tuple(f["byte_planes"]), tuple(f["bit_planes"]), negative_zeros)


def _table_form(table: EmbeddingTable) -> DecimalForm | None:
    """The decimal form a save writes for ``table``, None if its matrix has none.

    A table read from a model file carries the form it was stored in, and
    writes it back as it is. Any other table is searched on its first save
    and keeps the result, so the runner's models of one run of groups that
    read the same vector file, which all carry the same table object, search
    it once.
    """
    if table.form is None:
        table.form = _decimal_form(table.matrix) or False
    return table.form or None


def _encode_embedding_table(t):
    form = _table_form(t)
    return {
        "language": t.language,
        "source": t.source,
        "tokens": t.token_bytes,
        "matrix": t.matrix if form is None else None,
        "form": form,
    }


def _decode_embedding_table(f):
    """A table as it is stored: its sorted token bytes, and its decimal form alone or its float64 matrix, which has none.

    The table checks its token bytes (see ``EmbeddingTable``); a table they
    do not fit is refused naming the token member.
    """
    try:
        return EmbeddingTable(f["tokens"], f["matrix"], f["language"], f["source"], f["form"] or False)
    except ConfigError as exc:
        raise _MemberError(str(exc), "tokens") from exc


def _encode_pipeline(p):
    return {**_dataclass_fields(p), "tokenizer_vocab": _Encoded(p.tokenizer_vocab, _token_encoding)}


def _decode_pipeline(f):
    return PipelineModel(**{**f, "tokenizer_vocab": _member_tokens(f["tokenizer_vocab"])})


TREE_ARRAYS = ("feature", "threshold", "right", "value")
# what a tree or forest stores of its node arrays: each internal node's feature, threshold and
# right child, the node-kind bits and the packed leaf values
_TREE = {name: np.ndarray for name in ("feature", "threshold", "right", "node_kinds", "leaf_values")}


def _tree_layout(model) -> dict:
    """The stored arrays of a decision tree, or of a forest's packed trees (see the module docstring)."""
    feature, threshold, right, value = (getattr(model, name) for name in TREE_ARRAYS)
    inner = feature >= 0
    leaf = ~inner
    return {
        "feature": feature[inner],
        "threshold": threshold[inner],
        "right": right[inner],
        "node_kinds": np.packbits(inner),
        "leaf_values": np.packbits(value[leaf] != 0, axis=1),
    }


def _decode_tree(f, sizes) -> tuple[np.ndarray, ...]:
    """The four read-only node arrays of a stored tree; FormatError naming the member at fault.

    ``sizes`` is a forest's node count per tree, None for a decision tree,
    whose node count is twice its internal nodes plus one. The node-kind
    bits must be that many, with zero pad bits, and name as many internal
    nodes as are stored; every feature lies in ``[0, input_dim)``; every
    right child lies after ``node + 1`` and before the end of its tree; and
    the leaf values are one row per leaf. Then node ids rise along every
    path and stay inside their tree, so a walk from a root ends at one of
    its leaves.
    """
    shapes = {
        "feature": (np.int64, 1),
        "threshold": (np.float64, 1),
        "right": (np.int64, 1),
        "node_kinds": (np.uint8, 1),
        "leaf_values": (np.uint8, 2),
    }
    for name, (dtype, ndim) in shapes.items():
        if f[name].dtype != dtype or f[name].ndim != ndim:
            raise _MemberError(
                f"tree {name} must be {ndim}-D {np.dtype(dtype)}, got {f[name].dtype} of shape {f[name].shape}", name
            )
    feature, threshold, right, kinds, packed = (f[name] for name in shapes)
    internal = feature.size
    for name in ("threshold", "right"):
        if f[name].size != internal:
            raise _MemberError(f"tree {name} holds {f[name].size} values for {internal} internal nodes", name)
    if sizes is None:
        n = 2 * internal + 1
    elif sizes.dtype == np.int64 and sizes.ndim == 1 and sizes.size and (1 <= sizes).all():
        n = int(sizes.sum(dtype=object))  # in Python ints, which cannot overflow
    else:
        raise _MemberError("forest sizes must be a 1-D int64 array of positive node counts", "sizes")
    if kinds.size != -(-n // 8):
        raise _MemberError(f"tree node-kind bits hold {8 * kinds.size} bits for {n} nodes", "node_kinds")
    bits = np.unpackbits(kinds)
    if bits[n:].any():
        raise _MemberError("tree node-kind bits have nonzero pad bits", "node_kinds")
    inner = bits[:n].astype(bool)
    nodes = np.flatnonzero(inner)
    if nodes.size != internal:
        message = f"tree node-kind bits name {nodes.size} internal nodes, not the {internal} stored"
        raise _MemberError(message, "node_kinds")
    n_labels, width = f["n_labels"], -(-f["n_labels"] // 8)
    pad = 0xFF >> n_labels % 8 if n_labels % 8 else 0  # the low bits of a row's last byte
    if n_labels < 0 or packed.shape != (n - internal, width) or (pad and (packed[:, -1] & pad).any()):
        raise _MemberError(
            f"tree leaf values must be {n - internal} leaves of {n_labels} labels packed in {width} bytes "
            f"with zero pad bits, got shape {packed.shape}",
            "leaf_values",
        )
    if not ((0 <= feature) & (feature < f["input_dim"])).all():
        raise _MemberError(f"tree feature outside [0, {f['input_dim']})", "feature")
    ends = n if sizes is None else np.repeat(np.cumsum(sizes), sizes)[nodes]
    if not ((nodes + 1 < right) & (right < ends)).all():
        raise _MemberError("tree right child outside (node + 1, end of its tree)", "right")
    arrays = {name: np.full(n, -1, dtype=np.int64) for name in ("feature", "right")}
    arrays["feature"][nodes] = feature
    arrays["right"][nodes] = right
    arrays["threshold"] = np.zeros(n)
    arrays["threshold"][nodes] = threshold
    arrays["value"] = np.zeros((n, n_labels), dtype=np.int64)
    arrays["value"][~inner] = np.unpackbits(packed, axis=1, count=n_labels)
    for array in arrays.values():
        array.flags.writeable = False
    return tuple(arrays[name] for name in TREE_ARRAYS)


def _check_neighbors(f) -> None:
    """Refuse a kNN whose ``x`` is not 2-D float64 ``(n >= 1, input_dim)``, whose ``y`` is not 2-D int64
    ``(n, n_labels)`` of 0 and 1, or whose spec has no int ``k`` >= 1."""
    x, y = f["x"], f["y"]
    if x.dtype != np.float64 or x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != f["input_dim"]:
        message = f"knn x must be 2-D float64 of shape (n >= 1, {f['input_dim']}), got {x.dtype} of shape {x.shape}"
        raise _MemberError(message, "x")
    if y.dtype != np.int64 or y.shape != (x.shape[0], f["n_labels"]) or not ((y == 0) | (y == 1)).all():
        message = f"knn y must be 2-D int64 of shape ({x.shape[0]}, {f['n_labels']}) holding only 0 and 1"
        raise _MemberError(f"{message}, got {y.dtype} of shape {y.shape}", "y")
    try:
        neighbor_count(f["spec"])
    except ConfigError as exc:
        raise FormatError(f"knn spec: {exc}") from exc


def _check_voting(f) -> None:
    """Refuse a voting ensemble whose spec does not list its member learners' own specs, in order."""
    listed, learned = f["spec"].members, [member.spec for member in f["members"]]
    if len(listed) != len(learned):
        raise FormatError(f"voting spec: it lists {len(listed)} members for {len(learned)} learners")
    for i, (spec, learner_spec) in enumerate(zip(listed, learned)):
        if spec != learner_spec:
            raise FormatError(f"voting spec: member {i} is {spec}, but that learner's spec is {learner_spec}")


_LEARNER_TYPES = (DecisionTree, RandomForest, KNearestNeighbors, LinearSvm, Mlp, VotingEnsemble)
_DIMS = {"input_dim": int, "n_labels": int}

# learner class -> (the attribute that is None or empty until fitted, its stored state in file order
# with the kind of each field[, a check of the decoded fields that raises FormatError])
_LEARNERS = {
    DecisionTree: ("feature", {**_DIMS, **_TREE}),
    RandomForest: ("sizes", {**_DIMS, "sizes": np.ndarray, **_TREE}),
    KNearestNeighbors: ("x", {"x": np.ndarray, "y": np.ndarray, **_DIMS}, _check_neighbors),
    LinearSvm: ("w", {"w": np.ndarray, "b": np.ndarray, **_DIMS}),
    Mlp: ("weights", {"weights": [np.ndarray], "biases": [np.ndarray], **_DIMS}),
    VotingEnsemble: ("members", {"members": [_LEARNER_TYPES], **_DIMS}, _check_voting),
}


def _learner_codec(cls, fitted_attr, state, check=None):
    """``spec`` then the state; decoded as ``cls(spec)`` with the state set on it, after ``check`` of the fields.

    The spec must be of the kind ``cls`` learns. A tree or forest stores its
    node arrays as ``_tree_layout`` gives them and gets them back from
    ``_decode_tree``.
    """
    kind = next(k for k, learner in CLASSIFIER_CLASSES.items() if learner is cls)
    trees = cls in (DecisionTree, RandomForest)
    attributes = [name for name in state if not (trees and name in _TREE)]

    def encode(model):
        fitted = getattr(model, fitted_attr)
        if fitted is None or len(fitted) == 0:
            raise ConfigError(f"cannot serialize an unfitted {cls.__name__}")
        fields = {"spec": model.spec, **{name: getattr(model, name) for name in attributes}}
        if trees:
            fields.update((name, _Encoded(array, _plain_encoding)) for name, array in _tree_layout(model).items())
        return fields

    def decode(f):
        if f["spec"].kind != kind:
            raise FormatError(f"{kind} spec: kind must be {kind!r}, got {f['spec'].kind!r}")
        if check is not None:
            check(f)
        model = cls(f["spec"])
        for name in attributes:
            setattr(model, name, f[name])
        if trees:
            model.feature, model.threshold, model.right, model.value = _decode_tree(f, f.get("sizes"))
        return model

    return encode, decode, {"spec": ClassifierSpec, **state}


def _dataclass_codec(cls, kinds: dict):
    """Fields in declaration order, the keys of ``kinds``; decoded as ``cls(**fields)``."""
    return _dataclass_fields, lambda f: cls(**f), kinds


_OPTIONAL = type(None)

# type name -> (encode, decode, the fields encode writes in file order, each with the kind of value
# a load must find in it: a type or tuple of types, as ``isinstance`` takes them, or ``[item kind]``
# for a list)
_REGISTRY = {
    cls.__name__: codec
    for cls, codec in [
        (
            Vocabulary,
            (
                _encode_vocabulary,
                _decode_vocabulary,
                {"tokens": np.ndarray, "document_frequency": np.ndarray, "corpus_size": int},
            ),
        ),
        (
            EmbeddingTable,
            (
                _encode_embedding_table,
                _decode_embedding_table,
                {
                    "language": str,
                    "source": str,
                    "tokens": np.ndarray,
                    "matrix": (np.ndarray, _OPTIONAL),
                    "form": (DecimalForm, _OPTIONAL),
                },
            ),
        ),
        (
            DecimalForm,
            (
                _encode_form,
                _decode_form,
                {
                    "decimals": int,
                    "shape": tuple,
                    "byte_planes": [np.ndarray],
                    "bit_planes": [np.ndarray],
                    "negative_zeros": np.ndarray,
                },
            ),
        ),
        (
            PipelineModel,
            (
                _encode_pipeline,
                _decode_pipeline,
                {
                    "language": str,
                    "representation": str,
                    "representation_kind": str,
                    "tokenizer_spec": TokenizerSpec,
                    "tokenizer_vocab": np.ndarray,
                    "tfidf": (TfidfModel, _OPTIONAL),
                    "embeddings": (EmbeddingTable, _OPTIONAL),
                    "normalize": bool,
                    "pca": (PcaModel, _OPTIONAL),
                    "classifier": (*_LEARNER_TYPES, _OPTIONAL),
                    "emotions": tuple,
                },
            ),
        ),
        (
            TfidfModel,
            (_dataclass_fields, _decode_tfidf, {"vocabulary": Vocabulary, "idf": np.ndarray, "row_normalize": bool}),
        ),
        (
            PcaModel,
            (
                _dataclass_fields,
                _decode_pca,
                {
                    "mean": np.ndarray,
                    "components": np.ndarray,
                    "explained_variance": np.ndarray,
                    "explained_variance_ratio": np.ndarray,
                    "n_samples": int,
                },
            ),
        ),
        (TokenizerSpec, _dataclass_codec(TokenizerSpec, {"kind": str, "lowercase": bool, "vocab_path": (str, _OPTIONAL)})),
        (
            ClassifierSpec,
            _dataclass_codec(ClassifierSpec, {"kind": str, "hyperparameters": dict, "seed": int, "members": tuple}),
        ),
        *((cls, _learner_codec(cls, *entry)) for cls, entry in _LEARNERS.items()),
    ]
}
