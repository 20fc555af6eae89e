"""Pickle-free persistence for fitted models.

Everything is stored in a single .npz container: numeric arrays as npz
members, and the object structure as a JSON document kept in a ``__meta__``
uint8 member. Loading never unpickles, so a model file cannot execute code.
Each registered class encodes to a dict of plain values, containers, arrays,
and other registered objects, and the JSON names it by its class name.

Codecs come from one table. A plain dataclass stores its fields in
declaration order and decodes as ``cls(**fields)``. A learner stores ``spec``
and the state ``_LEARNERS`` lists for it, in that order, and decodes as
``cls(spec)`` with the state set on it; an unfitted learner is refused. Only
``Vocabulary``, ``EmbeddingTable`` and ``PipelineModel``, which hold token
lists, and ``DecimalForm``, whose planes a load checks, have codecs of their
own.

Layout (format 6). A decision tree is its five preorder node arrays; a
random forest is the same five arrays with its trees packed end to end plus
their node counts (see ``learn.tree``), six members whatever its tree count.
A token list is one uint8 member holding the UTF-8 bytes of its tokens
joined by newlines: a vocabulary is that member (in column order) plus its
int64 document frequencies, and an external-vocab tokenizer's list takes one
too. No per-token or per-tree structure goes through the JSON document.

A word-vector table is its token list plus its ``(tokens, dimension)``
matrix in decimal form when it has one. A text vector file holds
fixed-point decimals, so each value is an integer mantissa over
``10**decimals``: the save finds the smallest ``decimals`` in 0..9 at which
``rint(m * 10**decimals) / 10**decimals`` equals ``m`` bit for bit for every
value, and stores a ``DecimalForm`` (see ``dense_features``): the zigzag
codes of the mantissas as the byte planes of all their bytes below the top
one, each a uint8 ``(tokens, dimension)`` member, and the bits the top byte
uses as bit planes, each a uint8 ``(tokens, ceil(dimension / 8))`` member
packed by ``np.packbits``. An integer cannot carry the sign of ``-0.0``, so
the flat indices of those values go in an int64 member. A table without
such a form keeps its float64 matrix, and its ``form`` is null. The form is
found once per table object, however many models carry it, and a table read
from a model file is written back in the form it was read in, unsearched.

Each table plane is deflated at level 3 when deflate earns its keep: a
plane of over 64 KiB is probed (``_plane_setting``), eight 8 KiB slices
spread over it deflated at level 3, and one that does not shrink by at
least a quarter is written at level 0, in stored blocks, which inflate as
a plain copy. The low byte planes of a table barely compress and are
stored; the sparse bit planes of its top byte deflate to a fraction.

Any other float64 member of over 64 KiB whose values a probe finds
shuffle well (``_shuffles``) is stored as the uint8 ``(8, values)`` byte
planes of its ``.npy`` data, plane ``i`` holding byte ``i`` of every
little-endian value: the "shuffle" filter of Blosc, after which the bytes
that barely vary (signs, exponents, high bytes) sit together and deflate
far better than the interleaved values. The JSON names it with a
``shuffled`` node that records its shape and order; a load rebuilds the
values as a read-only array. Mostly-zero matrices fail the probe and stay
plain.

The file is a standard ``.npz`` that ``np.load`` reads: every member
decompresses to the bytes ``np.savez_compressed`` writes for the array
stored, so for a table or a shuffled member ``np.load`` returns its planes.
It is raw deflate (a stored plane too: stored blocks inside a deflate
stream) with zip64 records always written. A member's deflate setting
(``_deflate``) depends on the member alone, so equal models still give
equal files: table planes at level 3 or 0, shuffled planes with ``Z_RLE``,
anything else at zlib's default level. ``save_model`` takes an optional
memo that knows, by object (an array weakly), every array and token list a
save encoded, with its node and payload, and, by setting and the SHA-256 of
their ``.npy`` bytes, the deflated payloads: a later save under the same
memo repeats no probe, shuffle, hash or deflate for a live object it has
seen, and deflates no member equal to one it has. The runner keeps one memo per run of
(language, representation) groups that share a word-vector table, and one
per group otherwise, so the table (and its token list) that every model of
such a run carries is deflated once per run rather than once per cell.

``load_model`` reads only files laid out this way, in one pass and without
``np.load``. It opens the file once and takes the member list from the zip
central directory. For each member it checks the local header (signature,
the directory's name, deflate), inflates the payload with one
``zlib.decompress`` and checks its length and CRC-32. The ``.npy`` header
must be version 1.0 in exactly numpy's spelling, of a bool, integer or float
dtype, and its shape must account for every byte after it; there is no
``literal_eval`` and nothing is unpickled. Each array is a read-only view of
its inflated bytes, and only one member's payload is held at a time.

A load restores no word-vector row. A table stored in decimal form keeps its
byte and bit planes, ``decimals`` and negative-zero indices, all checked
while the model loads, and restores float64 rows only as they are read: a
request restores the rows its documents hit (see
``dense_features.DecimalForm``).

The container carries a format version; a mismatch raises FormatError
instead of guessing, so files of format 1 to 5 must be refit. A damaged
file (a bad CRC, a broken deflate stream, a zip member stored rather than
deflated or duplicated, a ``.npy`` header that is malformed or does not fit
its data, a member the structure names but the file lacks, a table plane
of the wrong dtype or shape or with nonzero pad bits, a negative-zero index
that names a set bit, a shuffled member that is not 8 planes of its
values) is a FormatError naming the file and the member, never a
traceback.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import re
import struct
import weakref
import zipfile
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from .atomic import atomic_open
from .dense_features import DecimalForm, EmbeddingTable
from .errors import ConfigError, FormatError
from .learn import (
    ClassifierSpec,
    DecisionTree,
    KNearestNeighbors,
    LinearSvm,
    Mlp,
    RandomForest,
    VotingEnsemble,
)
from .pipeline import PipelineModel
from .reduce import PcaModel
from .sparse_features import TfidfModel, Vocabulary
from .tokenize import TokenizerSpec

FORMAT_NAME = "polyemo"
FORMAT_VERSION = 6  # 6: word-vector tables as stored low byte planes and a bit-packed top byte


_PROBE_FLOOR = 64 << 10  # a float64 member or a table plane of more bytes than this is probed
_PROBE_SLICES, _PROBE_SLICE_BYTES = 8, 8 << 10  # eight slices of 8 KiB

# (level, strategy) of zlib's deflate for a member: numpy's, a word-vector
# table plane that deflates well, one that does not (stored blocks), and a
# shuffled float64 member (Z_RLE ignores the level)
_NUMPY = (zlib.Z_DEFAULT_COMPRESSION, zlib.Z_DEFAULT_STRATEGY)
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
    """A value a codec hands on with the encoding of its node and member: a table plane or a token list."""

    source: object
    encoding: Callable[[object], tuple[dict, _Member]]


@dataclasses.dataclass
class _Member:
    """The array a member stores, its deflate setting and, once deflated, its payload in place of the array."""

    array: np.ndarray
    setting: tuple[int, int]
    deflated: Deflated | None = None


def _array_encoding(array: np.ndarray) -> tuple[dict, _Member]:
    """The node and member of an array: a plain member, or the byte planes of float64 values that ``_shuffles``.

    The planes are of the values in the order ``.npy`` data holds them: C
    order, or Fortran order for an array that is only Fortran-contiguous.
    """
    if array.dtype == np.dtype("<f8") and array.nbytes > _PROBE_FLOOR:
        fortran_order = array.flags.f_contiguous and not array.flags.c_contiguous
        values = array.ravel(order="F" if fortran_order else "C")
        if _shuffles(values):
            node = {
                "__kind__": "shuffled",
                "key": None,
                "shape": list(array.shape),
                "fortran_order": fortran_order,
            }
            return node, _Member(_byte_planes(values), _SHUFFLED)
    return {"__kind__": "array", "key": None}, _Member(array, _NUMPY)


def _plane_encoding(plane: np.ndarray) -> tuple[dict, _Member]:
    """The node and member of a word-vector table plane, deflated at its ``_plane_setting``."""
    return {"__kind__": "array", "key": None}, _Member(plane, _plane_setting(plane))


def _token_encoding(tokens) -> tuple[dict, _Member]:
    """The node and member of a token list: its ``_token_member``."""
    return {"__kind__": "array", "key": None}, _Member(_token_member(tokens), _NUMPY)


def _reference(source):
    """A weak reference to ``source`` if it takes one (an array), else a strong one (a token list)."""
    try:
        return weakref.ref(source)
    except TypeError:
        return lambda: source


def _member(source, encoding, members: dict, memo: dict) -> dict:
    """The node of ``source``, whose member is added to ``members`` under the next key.

    ``encoding(source)`` gives the node and the member; it runs once per
    source object under ``memo``, and later saves under the same memo take
    the member (and its payload, once deflated) from there. The memo refers
    to an array weakly, so it keeps none alive, and an entry whose object
    has died is never taken for a new object that got its id.
    """
    entry = memo.get((encoding, id(source)))
    if entry is None or entry[0]() is not source:
        entry = memo[encoding, id(source)] = (_reference(source), *encoding(source))
    _, node, member = entry
    key = f"a{len(members)}"
    members[key] = member
    return {**node, "key": key}


def _encode_node(value, members: dict, memo: dict):
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
    encode, _ = _REGISTRY[type_name]
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
            f"shuffled member {node['key']!r} of shape {shape} needs 8 uint8 byte planes "
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


def _decode_node(node, arrays):
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    kind = node.get("__kind__")
    if kind in ("array", "shuffled"):
        if node["key"] not in arrays:
            raise FormatError(f"model structure names a missing member {node['key']!r}")
        array = arrays[node["key"]]
        return array if kind == "array" else _unshuffled(node, array)
    if kind == "list":
        return [_decode_node(v, arrays) for v in node["items"]]
    if kind == "tuple":
        return tuple(_decode_node(v, arrays) for v in node["items"])
    if kind == "dict":
        return {k: _decode_node(v, arrays) for k, v in node["items"].items()}
    if kind == "object":
        type_name = node["type"]
        if type_name not in _REGISTRY:
            raise FormatError(f"model file references unknown type {type_name!r}")
        _, decode = _REGISTRY[type_name]
        fields = {k: _decode_node(v, arrays) for k, v in node["fields"].items()}
        try:
            return decode(fields)
        except _MemberError as exc:  # name the member the refused array was read from
            child = node["fields"][exc.field]
            if exc.index is not None:
                child = child["items"][exc.index]
            raise FormatError(f"member {child['key']!r}: {exc}") from exc
    raise FormatError(f"malformed model node {node!r}")


@dataclasses.dataclass(frozen=True)
class Deflated:
    """One zip member's raw-deflate payload, its CRC-32 and its uncompressed size."""

    payload: memoryview
    crc: int
    size: int


def _npy(array: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The ``.npy`` bytes numpy writes for ``array``: its header, and an array whose buffer is the data.

    The header is format 1.0, which holds every array a model encodes. The
    data is the array's own buffer: numpy writes a Fortran-ordered array as
    the C-order bytes of its transpose, and any other non-contiguous array in
    C order; only that last case is copied.
    """
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(array))
    if array.flags.c_contiguous:
        data = array
    elif array.flags.f_contiguous:
        data = array.T
    else:
        data = np.ascontiguousarray(array)
    return header.getvalue(), data


def _npy_key(array: np.ndarray) -> bytes:
    """SHA-256 of the ``.npy`` bytes of ``array``."""
    header, data = _npy(array)
    digest = hashlib.sha256(header)
    digest.update(data)
    return digest.digest()


def _deflate(array: np.ndarray, setting: tuple[int, int]) -> Deflated:
    """``array``'s ``.npy`` bytes as a raw deflate member at ``setting``, a (level, strategy) pair.

    The encoder picks the setting from the member alone: ``_TABLE`` or
    ``_STORED`` for a word-vector table plane (``_plane_setting``),
    ``_SHUFFLED`` for the planes of a float64 member that ``_shuffles``, and
    ``_NUMPY``, zlib's default level, for every other member. The member
    decompresses to the bytes ``np.savez_compressed`` writes for ``array``,
    and at ``_NUMPY`` its compressed bytes are numpy's too.
    """
    header, data = _npy(array)
    compressor = zlib.compressobj(setting[0], zlib.DEFLATED, -15, 8, setting[1])
    payload = b"".join((compressor.compress(header), compressor.compress(data), compressor.flush()))
    crc = zlib.crc32(data, zlib.crc32(header))
    return Deflated(memoryview(payload), crc, len(header) + data.nbytes)


_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")  # the fixed 30 bytes before a member's name
_ZIP64 = 45  # "version needed to extract" for zip64 records
_DEFLATED = 8
_DOS_DATE = (1 << 5) | 1  # 1980-01-01, so equal models give equal files
_IN_EXTRA = 0xFFFFFFFF  # a 32-bit field whose value is in the zip64 extra field
_LIMIT32 = 0x7FFFFFFF  # larger central-directory values move to the extra field, as in zipfile
_CENTRAL_HEADER = struct.Struct("<4s4B4HL2L5H2L")
_ZIP64_END = struct.Struct("<4sQ2H2L4Q")
_ZIP64_LOCATOR = struct.Struct("<4sLQL")
_END = struct.Struct("<4s4H2LH")


def _write_zip(fh, members: list[tuple[str, Deflated]]) -> None:
    """Write deflated members as a standard zip archive.

    As ``np.savez`` does with ``force_zip64``, every local header carries its
    sizes in a zip64 extra field; the central directory moves a size or
    offset there once it passes 2 GiB, and the archive always ends with zip64
    records. Members of 4 GiB or more take the same code path.
    """
    central = []
    offset = 0
    for name, m in members:
        fname = name.encode("ascii")
        compressed = m.payload.nbytes
        local = _LOCAL_HEADER.pack(
            b"PK\x03\x04", _ZIP64, 0, 0, _DEFLATED, 0, _DOS_DATE, m.crc,
            _IN_EXTRA, _IN_EXTRA, len(fname), 20,
        ) + fname + struct.pack("<2H2Q", 1, 16, m.size, compressed)
        fh.write(local)
        fh.write(m.payload)
        values = (m.size, compressed, offset)
        wide = [v for v in values if v > _LIMIT32]
        extra = struct.pack(f"<2H{len(wide)}Q", 1, 8 * len(wide), *wide) if wide else b""
        size32, compressed32, offset32 = (_IN_EXTRA if v > _LIMIT32 else v for v in values)
        central.append(
            _CENTRAL_HEADER.pack(
                b"PK\x01\x02", _ZIP64, 3, _ZIP64, 0, 0, _DEFLATED, 0, _DOS_DATE, m.crc,
                compressed32, size32, len(fname), len(extra), 0, 0, 0, 0o600 << 16, offset32,
            )
            + fname
            + extra
        )
        offset += len(local) + compressed
    directory = b"".join(central)
    fh.write(directory)
    n = len(members)
    fh.write(
        _ZIP64_END.pack(
            b"PK\x06\x06", _ZIP64_END.size - 12, _ZIP64, _ZIP64, 0, 0, n, n, len(directory), offset
        )
    )
    fh.write(_ZIP64_LOCATOR.pack(b"PK\x06\x07", 0, offset + len(directory), 1))
    fh.write(
        _END.pack(
            b"PK\x05\x06", 0, 0, min(n, 0xFFFF), min(n, 0xFFFF),
            min(len(directory), _IN_EXTRA), min(offset, _IN_EXTRA), 0,
        )
    )


def _encode_model(obj, memo: dict | None = None) -> dict[str, _Member]:
    """The npz members of ``obj``: ``__meta__``, already deflated, first, then in encoding order."""
    members: dict[str, _Member] = {}
    root = _encode_node(obj, members, {} if memo is None else memo)
    meta = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "root": root}
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    return {"__meta__": _Member(meta_bytes, _NUMPY, _deflate(meta_bytes, _NUMPY)), **members}


def save_model(obj, path: str | Path, memo: dict | None = None) -> None:
    """Write any registered object (and everything it references) to ``path``.

    Pass the same ``memo`` dict to several saves and each distinct member is
    deflated once across them. It holds, by object, each array (or token
    list) that a save has encoded, with its node and deflated payload, so a
    later save of the same live object repeats no probe, shuffle, hash or
    deflate; and, by deflate setting and the SHA-256 of its ``.npy`` bytes,
    each payload, so an equal array of another object is not deflated again.
    An array must not change while a memo that has seen it is in use. The
    memo holds every payload it has made, so drop it when its saves are
    done.

    The file is replaced whole or not at all: a failed save leaves the
    previous model in place.
    """
    memo = {} if memo is None else memo
    members = _encode_model(obj, memo)
    for member in members.values():
        if member.deflated is None:
            key = (member.setting, _npy_key(member.array))
            if key not in memo:
                memo[key] = _deflate(member.array, member.setting)
            member.deflated, member.array = memo[key], None  # a later save needs only the payload
    with atomic_open(path, "wb") as fh:
        _write_zip(fh, [(f"{name}.npy", member.deflated) for name, member in members.items()])


_NPY_MAGIC = b"\x93NUMPY\x01\x00"  # .npy format 1.0
# the header numpy writes, exactly: a quoted dtype code, the order, and a shape tuple
_NPY_HEADER = re.compile(
    rb"\{'descr': '([^']*)', 'fortran_order': (False|True), "
    rb"'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n"
)
# the dtypes a model member may hold, by the code numpy writes for them
_NPY_DTYPES = {
    dtype.str.encode("ascii"): dtype
    for code in ("b1", "i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8", "f2", "f4", "f8")
    for dtype in (np.dtype("<" + code), np.dtype(">" + code))
}
# a deflate match (at most 258 bytes) takes at least 2 bits: a payload inflates to <= 1032x its size
_MAX_INFLATE = 1032


def _npy_header(data: bytes) -> tuple[tuple[int, ...], bool, np.dtype, int]:
    """``(shape, fortran_order, dtype, data offset)`` of ``.npy`` 1.0 bytes; ValueError if not one.

    The header must read exactly as numpy writes it for a bool, integer or
    float array: other versions, dtypes (object arrays among them, so
    nothing is unpickled) and spellings are refused rather than parsed.
    """
    if data[:8] != _NPY_MAGIC:
        raise ValueError(f"not a .npy 1.0 array (it starts {data[:8]!r})")
    start = 10 + int.from_bytes(data[8:10], "little")
    header = _NPY_HEADER.fullmatch(data, 10, start)
    if header is None:
        raise ValueError(f"malformed .npy header {data[10:start]!r}")
    code, fortran_order, dims = header.groups()
    dtype = _NPY_DTYPES.get(code)
    if dtype is None:
        descr = code.decode("latin-1")
        raise ValueError(
            f"dtype {descr!r} is not a bool, integer or float type (a model is never unpickled)"
        )
    shape = tuple(int(d) for d in dims.split(b",") if d)
    return shape, fortran_order == b"True", dtype, start


def _npy_array(data: bytes) -> np.ndarray:
    """The array of ``.npy`` 1.0 bytes, as a read-only view of them.

    ValueError if the header does not parse or its shape does not fit the data.
    """
    shape, fortran_order, dtype, start = _npy_header(data)
    count = math.prod(shape)
    if count * dtype.itemsize != len(data) - start:
        promised, held = count * dtype.itemsize, len(data) - start
        raise ValueError(f".npy header promises {promised} data bytes, the member holds {held}")
    array = np.frombuffer(data, dtype, count, start)
    return array.reshape(shape, order="F" if fortran_order else "C")


def _inflate(fh, info: zipfile.ZipInfo) -> bytes:
    """Member ``info`` of the open zip ``fh``, inflated, its length and CRC-32 checked.

    A local header that is not the directory entry's, a method other than
    deflate and a short or damaged payload raise ValueError or zlib.error.
    """
    fh.seek(info.header_offset)
    local = fh.read(_LOCAL_HEADER.size)
    if len(local) != _LOCAL_HEADER.size:
        raise ValueError("truncated local header")
    signature, _, _, _, method, *_, name_size, extra_size = _LOCAL_HEADER.unpack(local)
    if signature != b"PK\x03\x04":
        raise ValueError(f"bad local header signature {signature!r}")
    name = fh.read(name_size).decode("utf-8" if info.flag_bits & 0x800 else "cp437", "replace")
    if name != info.orig_filename:
        raise ValueError(f"local header names {name!r}, the directory {info.orig_filename!r}")
    if method != _DEFLATED:
        raise ValueError(f"compression method {method}, not deflate")
    fh.seek(extra_size, io.SEEK_CUR)
    payload = fh.read(info.compress_size)
    if len(payload) != info.compress_size:
        raise ValueError(f"payload of {len(payload)} bytes, not {info.compress_size}")
    # a damaged directory cannot make the inflate reserve more than the payload can hold
    data = zlib.decompress(payload, -15, min(info.file_size, _MAX_INFLATE * len(payload)))
    if len(data) != info.file_size:
        raise ValueError(f"inflates to {len(data)} bytes, not {info.file_size}")
    if zlib.crc32(data) != info.CRC:
        raise ValueError("bad CRC-32")
    return data


def _read_members(path: Path) -> dict[str, np.ndarray]:
    """Every array of the model file at ``path``, by member name without ``.npy``.

    One open, the member list from the zip central directory, then for each
    member one read of its payload, one inflate and one strict ``.npy``
    parse; each array is a read-only view of its inflated bytes. Only one
    member's payload is held at a time. A file that cannot be read, is not
    a zip, or has a damaged or duplicated member raises FormatError naming
    ``path`` (and the member).
    """
    try:
        with open(path, "rb") as fh:
            try:
                infos = zipfile.ZipFile(fh).infolist()
            except (ValueError, zipfile.BadZipFile) as exc:
                raise FormatError(f"{path}: not a model file: {exc}") from exc
            members = {}
            for info in infos:
                key = info.filename.removesuffix(".npy")
                try:
                    if key in members:
                        raise ValueError("a second member of this name")
                    members[key] = _npy_array(_inflate(fh, info))
                except (ValueError, zlib.error) as exc:
                    raise FormatError(f"{path}: damaged model member {key!r}: {exc}") from exc
            return members
    except OSError as exc:
        raise FormatError(f"cannot read model {path}: {exc}") from exc


def load_model(path: str | Path):
    """Read back an object written by save_model; never unpickles.

    A file that is not a model of this format, or is damaged, raises
    FormatError naming ``path``. Its arrays are read-only.
    """
    path = Path(path)
    arrays = _read_members(path)
    if "__meta__" not in arrays:
        raise FormatError(f"{path}: not a model file (missing metadata)")
    try:
        meta = json.loads(arrays.pop("__meta__").tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt model metadata: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != FORMAT_NAME:
        found = meta.get("format") if isinstance(meta, dict) else None
        raise FormatError(f"{path}: unrecognized container format {found!r}")
    if meta.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"{path}: model format version {meta.get('version')!r} is not "
            f"supported (this build reads version {FORMAT_VERSION})"
        )
    try:
        return _decode_node(meta["root"], arrays)
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
    return Vocabulary(
        index={t: i for i, t in enumerate(tokens)},
        document_frequency=dict(zip(tokens, f["document_frequency"].tolist())),
        corpus_size=f["corpus_size"],
    )


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
        "tokens": _Encoded(t.tokens, _token_encoding),
        "matrix": t.matrix if form is None else None,
        "form": form,
    }


def _decode_embedding_table(f):
    """A table as it is stored: its decimal form alone, or its float64 matrix, which has none."""
    tokens = _member_tokens(f["tokens"])
    try:
        return EmbeddingTable(tokens, f["matrix"], f["language"], f["source"], f["form"] or False)
    except ConfigError as exc:
        raise FormatError(str(exc)) from exc


def _encode_pipeline(p):
    return {**_dataclass_fields(p), "tokenizer_vocab": _Encoded(p.tokenizer_vocab, _token_encoding)}


def _decode_pipeline(f):
    return PipelineModel(**{**f, "tokenizer_vocab": _member_tokens(f["tokenizer_vocab"])})


def _dataclass_codec(cls):
    return _dataclass_fields, lambda f: cls(**f)


_DATACLASSES = (TfidfModel, PcaModel, TokenizerSpec, ClassifierSpec)
TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")

# learner class -> (the attribute that is None or empty until fitted, its state in file order)
_LEARNERS = {
    DecisionTree: ("feature", ("input_dim", "n_labels") + TREE_ARRAYS),
    RandomForest: ("sizes", ("input_dim", "n_labels", "sizes") + TREE_ARRAYS),
    KNearestNeighbors: ("x", ("x", "y", "input_dim", "n_labels")),
    LinearSvm: ("w", ("w", "b", "input_dim", "n_labels")),
    Mlp: ("weights", ("weights", "biases", "input_dim", "n_labels")),
    VotingEnsemble: ("members", ("members", "input_dim", "n_labels")),
}


def _learner_codec(cls, fitted_attr, state):
    """``spec`` then the state attributes; decoded as ``cls(spec)`` with the state set on it."""

    def encode(model):
        fitted = getattr(model, fitted_attr)
        if fitted is None or len(fitted) == 0:
            raise ConfigError(f"cannot serialize an unfitted {cls.__name__}")
        return {"spec": model.spec, **{name: getattr(model, name) for name in state}}

    def decode(f):
        model = cls(f["spec"])
        for name in state:
            setattr(model, name, f[name])
        return model

    return encode, decode


_REGISTRY = {
    cls.__name__: codec
    for cls, codec in [
        (Vocabulary, (_encode_vocabulary, _decode_vocabulary)),
        (EmbeddingTable, (_encode_embedding_table, _decode_embedding_table)),
        (DecimalForm, (_encode_form, _decode_form)),
        (PipelineModel, (_encode_pipeline, _decode_pipeline)),
        *((cls, _dataclass_codec(cls)) for cls in _DATACLASSES),
        *((cls, _learner_codec(cls, *entry)) for cls, entry in _LEARNERS.items()),
    ]
}
