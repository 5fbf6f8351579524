"""On-heap object encoding: type tags, headers and the per-type layout table.

Every managed object occupies ``HEADER_SIZE + payload`` bytes at its virtual
address:

========  =====  ==========================================
offset    size   field
========  =====  ==========================================
0         4      type tag (u32)
4         4      flags (u32, reserved; Java variant uses it)
8         8      payload size in bytes (u64)
16        ...    payload
========  =====  ==========================================

Container payloads store *children as 8-byte little-endian virtual
addresses* — real pointers, which is what rmap exploits.

What differs from type to type is held once, in :data:`LAYOUT`: one
:class:`TypeLayout` row per :class:`TypeTag`.  ``box``, ``load``,
``children``, the gc mark phase, traversal and the serializer are loops
over that table; none of them names a type's layout itself.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from itertools import chain
from typing import Any, Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import SerializationError
from repro.runtime.values import (DataFrameValue, ImageValue, MLModelValue,
                                  NdArrayValue, TreeValue)

HEADER_SIZE = 16
PTR_SIZE = 8
HEADER_STRUCT = struct.Struct("<IIQ")

_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class TypeTag(IntEnum):
    """Type tags for on-heap objects."""

    NONE = 0
    BOOL = 1
    INT = 2
    FLOAT = 3
    STR = 4
    BYTES = 5
    LIST = 6
    TUPLE = 7
    DICT = 8
    NDARRAY = 9
    DATAFRAME = 10
    IMAGE = 11
    MLMODEL = 12
    TREE = 13


# dtype codes for NDARRAY payloads
DTYPE_CODES = {name: code for code, name in enumerate(
    ("float64", "float32", "int64", "int32", "uint8", "bool"))}
CODE_DTYPES = {v: k for k, v in DTYPE_CODES.items()}

_IMAGE_MODES = {"L": 0, "RGB": 1, "RGBA": 2}
_IMAGE_CODES = {v: k for k, v in _IMAGE_MODES.items()}


def pack_pointers(addrs) -> bytes:
    """Encode a sequence of child addresses as consecutive u64 slots."""
    return struct.pack(f"<{len(addrs)}Q", *addrs)


def unpack_pointers(raw: bytes, count: int, offset: int = 0):
    return list(struct.unpack_from(f"<{max(count, 0)}Q", raw, offset))


def _encode_ndarray(value) -> bytes:
    arr = (value if isinstance(value, NdArrayValue)
           else NdArrayValue(value)).array
    code = DTYPE_CODES.get(arr.dtype.name)
    if code is None:
        raise SerializationError(
            f"unsupported ndarray dtype {arr.dtype.name}")
    shape = arr.shape
    return struct.pack(f"<{len(shape) + 2}Q", len(shape), *shape,
                       code) + arr.tobytes()


def _decode_ndarray(payload: bytes) -> NdArrayValue:
    (ndim,) = _U64.unpack_from(payload, 0)
    *shape, code = struct.unpack_from(f"<{ndim + 1}Q", payload, 8)
    arr = np.frombuffer(payload, dtype=CODE_DTYPES[code],
                        offset=16 + 8 * ndim).reshape(shape)
    return NdArrayValue(arr.copy())


def _decode_image(payload: bytes) -> ImageValue:
    width, height, mode = struct.unpack_from("<3Q", payload, 0)
    return ImageValue(width, height, payload[24:], mode=_IMAGE_CODES[mode])


class TypeLayout(NamedTuple):
    """Everything a heap walker needs to know about one :class:`TypeTag`:
    a leaf row has the codec fields, a container row the pointer fields."""

    tag: TypeTag
    name: str  # lower-cased tag name (key of traversal's object map)
    hosts: Tuple[type, ...]  # the host types that box as this tag
    # -- leaf: host value -> payload and back
    encode: Optional[Callable[[Any], bytes]] = None
    decode: Optional[Callable[[bytes], Any]] = None
    dense: bool = False  # decodable out of one read of a dense region
    #: ``struct`` code of the 8-byte payload when a long homogeneous list
    #: of this type is laid out as one stride-24 run (``None``: never)
    run_code: Optional[str] = None
    # -- container: payload offset of the first pointer slot (the slots
    # run to the payload's end); value -> (fixed payload part, children);
    # (payload, loaded children) -> value
    pointers: Optional[int] = None
    split: Optional[Callable[[Any], Tuple[bytes, list]]] = None
    build: Optional[Callable[[bytes, list], Any]] = None
    #: adds a built value's content to ``build(payload, [])``, memoised
    #: empty before the children load so that one of them can point back
    #: at it (``None``: a cycle through this type cannot be loaded)
    fill: Optional[Callable[[Any, Any], None]] = None
    #: holds arbitrary children: allocated before them (one may point
    #: back; a typed record is allocated after its children) and loaded
    #: in bulk when they sit in one dense region
    generic: bool = False
    sequence: bool = False  # its children may be one packed run


def _row(tag: TypeTag, *hosts: type, **fields) -> TypeLayout:
    return TypeLayout(tag, tag.name.lower(), hosts, **fields)


#: tag code -> row (tag codes are dense from 0).  ``layout_of`` tests host
#: types in this order, so ``bool`` has to come before ``int``.
LAYOUT: Tuple[TypeLayout, ...] = (
    _row(TypeTag.NONE, type(None), dense=True,
         encode=lambda v: bytes(8), decode=lambda p: None),
    _row(TypeTag.BOOL, bool, dense=True,
         encode=_U64.pack, decode=lambda p: any(p)),
    _row(TypeTag.INT, int, np.integer, dense=True, run_code="q",
         encode=_I64.pack, decode=lambda p: _I64.unpack_from(p)[0]),
    _row(TypeTag.FLOAT, float, np.floating, dense=True, run_code="d",
         encode=_F64.pack, decode=lambda p: _F64.unpack_from(p)[0]),
    _row(TypeTag.STR, str, dense=True,
         encode=str.encode, decode=bytes.decode),
    _row(TypeTag.BYTES, bytes, bytearray, dense=True,
         encode=bytes, decode=bytes),
    _row(TypeTag.LIST, list, pointers=8, generic=True, sequence=True,
         split=lambda v: (_U64.pack(len(v)), v),
         build=lambda p, vs: vs, fill=list.extend),
    _row(TypeTag.TUPLE, tuple, pointers=8, generic=True, sequence=True,
         split=lambda v: (_U64.pack(len(v)), v),
         build=lambda p, vs: tuple(vs)),
    _row(TypeTag.DICT, dict, pointers=8, generic=True,
         split=lambda v: (_U64.pack(len(v)),
                          list(chain.from_iterable(v.items()))),
         build=lambda p, vs: dict(zip(vs[0::2], vs[1::2])),
         fill=dict.update),
    _row(TypeTag.NDARRAY, np.ndarray, NdArrayValue,
         encode=_encode_ndarray, decode=_decode_ndarray),
    # a fresh list per column: a column never shares its heap object with
    # another reference to the frame's own cell list
    _row(TypeTag.DATAFRAME, DataFrameValue, pointers=16,
         split=lambda v: (struct.pack("<2Q", v.nrows, v.ncols),
                          [x for name, cells in v.columns.items()
                           for x in (name, list(cells))]),
         build=lambda p, vs: DataFrameValue(dict(zip(vs[0::2], vs[1::2])))),
    _row(TypeTag.IMAGE, ImageValue,
         encode=lambda v: struct.pack("<3Q", v.width, v.height,
                                      _IMAGE_MODES[v.mode]) + v.pixels,
         decode=_decode_image),
    _row(TypeTag.MLMODEL, MLModelValue, pointers=24,
         split=lambda v: (struct.pack("<3Q", v.n_features, v.n_classes,
                                      v.n_trees), v.trees),
         build=lambda p, vs: MLModelValue(vs, *struct.unpack_from("<2Q", p))),
    _row(TypeTag.TREE, TreeValue, pointers=8,
         split=lambda v: (_U64.pack(5), [v.feature, v.threshold, v.left,
                                         v.right, v.value]),
         build=lambda p, vs: TreeValue(*(v.array for v in vs))),
)
#: exact host type -> row: the common case, without ``layout_of``'s scan
EXACT_TYPES = {host: row for row in LAYOUT for host in row.hosts}


def layout_of(value: Any) -> TypeLayout:
    """The row *value* boxes as (subclasses of the host types included)."""
    for row in LAYOUT:
        if isinstance(value, row.hosts):
            return row
    raise SerializationError(
        f"cannot box value of type {type(value).__name__}")


def layout_at(header: bytes) -> Tuple[TypeLayout, int]:
    """``(row, payload size)`` of the object whose header is *header*."""
    tag, _flags, size = HEADER_STRUCT.unpack(header)
    if tag >= len(LAYOUT):
        raise ValueError(f"{tag} is not a valid TypeTag")
    return LAYOUT[tag], size


def pointer_slots(row: TypeLayout, payload: bytes) -> list:
    """The child addresses in a container's *payload*."""
    return unpack_pointers(payload, (len(payload) - row.pointers) // PTR_SIZE,
                           row.pointers)
