"""On-heap object encoding: type tags, headers and payload layouts.

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
"""

from __future__ import annotations

import struct
from enum import IntEnum

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


# Types whose payload embeds pointers to child objects, with the payload
# offset of the first pointer slot (the slots run to the payload's end).
POINTER_OFFSET = {
    TypeTag.LIST: 8, TypeTag.TUPLE: 8, TypeTag.DICT: 8, TypeTag.TREE: 8,
    TypeTag.DATAFRAME: 16, TypeTag.MLMODEL: 24,
}

# dtype codes for NDARRAY payloads
DTYPE_CODES = {
    "float64": 0,
    "float32": 1,
    "int64": 2,
    "int32": 3,
    "uint8": 4,
    "bool": 5,
}
CODE_DTYPES = {v: k for k, v in DTYPE_CODES.items()}


def pack_header(tag: TypeTag, payload_size: int, flags: int = 0) -> bytes:
    return HEADER_STRUCT.pack(int(tag), flags, payload_size)


# code -> member: a tuple index instead of the enum call machinery, on
# the path of every header read (tag codes are dense from 0)
TAGS = tuple(TypeTag)


def unpack_header(raw: bytes):
    tag, flags, size = HEADER_STRUCT.unpack(raw)
    try:
        return TAGS[tag], flags, size
    except IndexError:
        raise ValueError(f"{tag} is not a valid TypeTag") from None


def pack_u64(value: int) -> bytes:
    return _U64.pack(value)


def unpack_u64(raw: bytes, offset: int = 0) -> int:
    return _U64.unpack_from(raw, offset)[0]


def pack_i64(value: int) -> bytes:
    return _I64.pack(value)


def unpack_i64(raw: bytes, offset: int = 0) -> int:
    return _I64.unpack_from(raw, offset)[0]


def pack_f64(value: float) -> bytes:
    return _F64.pack(value)


def unpack_f64(raw: bytes, offset: int = 0) -> float:
    return _F64.unpack_from(raw, offset)[0]


def pack_pointers(addrs) -> bytes:
    """Encode a sequence of child addresses as consecutive u64 slots."""
    return struct.pack(f"<{len(addrs)}Q", *addrs)


def unpack_pointers(raw: bytes, count: int, offset: int = 0):
    return list(struct.unpack_from(f"<{max(count, 0)}Q", raw, offset))
