"""The managed heap: boxing, loading and collecting objects in sim memory.

``box`` writes a Python value into simulated memory as a graph of tagged
objects whose references are 64-bit virtual addresses; ``load`` rebuilds the
Python value by chasing those pointers through the owning address space —
which transparently includes rmap'd remote ranges, so a consumer can ``load``
a producer's root pointer directly.

Fast paths: homogeneous primitive lists (the paper's ``list(int)``
microbenchmark reaches 5,000,000 elements) are laid out as one contiguous
stride-24 block and bulk-encoded/decoded.  Simulated cost is still charged
per element; only host CPU time is saved.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import RuntimeHeapError, SerializationError
from repro.mem.address_space import AddressSpace
from repro.mem.layout import AddressRange
from repro.mem.allocator import HeapAllocator
from repro.runtime import objects as enc
from repro.runtime.objects import (CODE_DTYPES, DTYPE_CODES,
                                   HEADER_SIZE, PTR_SIZE, TypeTag)
from repro.runtime.values import (DataFrameValue, ImageValue, MLModelValue,
                                  NdArrayValue, TreeValue)

_PRIM_SLOT = HEADER_SIZE + 8  # header + 8-byte payload, stride of packed runs
_PACK_MIN = 64                # minimum list length for the packed layout
_PACKED_TAGS = (TypeTag.INT, TypeTag.FLOAT)  # element types of packed runs
_IMAGE_MODES = {"L": 0, "RGB": 1, "RGBA": 2}
_IMAGE_CODES = {v: k for k, v in _IMAGE_MODES.items()}

_CYCLE_SENTINEL = object()


def is_prim_run(ptrs: List[int]) -> bool:
    """True when *ptrs* are at least ``_PACK_MIN`` addresses exactly one
    primitive slot apart — the layout of a packed int/float list."""
    n = len(ptrs)
    if n < _PACK_MIN or ptrs[-1] != ptrs[0] + (n - 1) * _PRIM_SLOT:
        return False
    arr = np.asarray(ptrs, dtype=np.uint64)
    return bool(np.all(np.diff(arr) == _PRIM_SLOT))


def encode_prim_run(tag: TypeTag, raw: bytes) -> bytes:
    """Box 8-byte payloads *raw* as one stride-24 run of *tag* objects."""
    words = np.empty((len(raw) // 8, 3), dtype="<u8")
    words[:, 0] = int(tag)  # u32 tag, u32 flags (0)
    words[:, 1] = 8         # payload size
    words[:, 2] = np.frombuffer(raw, dtype="<u8")
    return words.tobytes()


class ManagedHeap:
    """One function container's object heap.

    The heap owns an allocator over its range, a root set for mark-sweep
    GC, and cost accounting through the address space's ledger.
    """

    def __init__(self, space: AddressSpace, rng: Optional[AddressRange] = None,
                 name: str = "heap", numpy_iterator: bool = True):
        if rng is None:
            if space.segments is None:
                raise RuntimeHeapError(
                    f"heap range not given and {space.name!r} has no "
                    "segment layout")
            rng = space.segments.heap
        self.space = space
        self.range = rng
        self.name = name
        self.allocator = HeapAllocator(rng)
        self.roots: Set[int] = set()
        self.objects_boxed = 0
        # Section 4.4: numpy ndarrays only traverse when the 12-LoC internal
        # iterator wrapper is enabled.
        self.numpy_iterator = numpy_iterator

    @property
    def cost(self):
        return self.space.cost

    @property
    def ledger(self):
        return self.space.ledger

    def owns(self, addr: int) -> bool:
        """True when *addr* lies in this heap's own range (vs a remote one)."""
        return addr in self.range

    # ------------------------------------------------------------------ box

    #: memo key pinning temporaries for the lifetime of one ``box()``.
    #: The memo is keyed by ``id(value)``; any value constructed *during*
    #: boxing (e.g. a column materialized as ``list(cells)``) must stay
    #: referenced until the top-level ``box()`` returns, or a later
    #: temporary can reuse the same ``id`` and take a stale memo hit —
    #: silently aliasing one object's heap data to another's.  ``id()``
    #: is always non-negative, so ``-1`` can never collide with a real key.
    _KEEPALIVE = -1

    def box(self, value: Any) -> int:
        """Write *value* into the heap; returns the root object's address."""
        memo: Dict[int, Any] = {self._KEEPALIVE: []}
        return self._box(value, memo)

    def _alloc(self, nbytes: int) -> int:
        self.ledger.charge(self.cost.alloc_ns, "alloc")
        return self.allocator.alloc(nbytes)

    def _write_object(self, addr: int, tag: TypeTag, payload: bytes) -> None:
        self.space.write(addr, enc.pack_header(tag, len(payload)) + payload)
        self.objects_boxed += 1

    def _box(self, value: Any, memo: Dict[int, int]) -> int:
        key = id(value)
        if key in memo:
            return memo[key]

        if value is None:
            return self._box_scalar(TypeTag.NONE, enc.pack_u64(0))
        if isinstance(value, bool):
            return self._box_scalar(TypeTag.BOOL, enc.pack_u64(int(value)))
        if isinstance(value, (int, np.integer)):
            return self._box_scalar(TypeTag.INT, enc.pack_i64(int(value)))
        if isinstance(value, (float, np.floating)):
            return self._box_scalar(TypeTag.FLOAT, enc.pack_f64(float(value)))
        if isinstance(value, str):
            return self._box_scalar(TypeTag.STR, value.encode("utf-8"))
        if isinstance(value, (bytes, bytearray)):
            return self._box_scalar(TypeTag.BYTES, bytes(value))
        if isinstance(value, (list, tuple)):
            return self._box_sequence(value, memo)
        if isinstance(value, dict):
            return self._box_dict(value, memo)
        if isinstance(value, np.ndarray):
            return self._box_ndarray(NdArrayValue(value))
        if isinstance(value, NdArrayValue):
            return self._box_ndarray(value)
        if isinstance(value, DataFrameValue):
            return self._box_dataframe(value, memo)
        if isinstance(value, ImageValue):
            return self._box_image(value)
        if isinstance(value, MLModelValue):
            return self._box_model(value, memo)
        if isinstance(value, TreeValue):
            return self._box_tree(value, memo)
        raise SerializationError(
            f"cannot box value of type {type(value).__name__}")

    def _box_scalar(self, tag: TypeTag, payload: bytes) -> int:
        addr = self._alloc(HEADER_SIZE + len(payload))
        self._write_object(addr, tag, payload)
        return addr

    def _box_sequence(self, value, memo: Dict[int, int]) -> int:
        tag = TypeTag.LIST if isinstance(value, list) else TypeTag.TUPLE
        child_addrs = self._try_box_packed(value)
        # allocate the container before boxing children one by one, so
        # cycles resolve through memo
        addr = self._alloc(HEADER_SIZE + 8 + PTR_SIZE * len(value))
        memo[id(value)] = addr
        if child_addrs is None:
            child_addrs = [self._box(child, memo) for child in value]
        payload = enc.pack_u64(len(value)) + enc.pack_pointers(child_addrs)
        self._write_object(addr, tag, payload)
        return addr

    def _try_box_packed(self, value) -> Optional[List[int]]:
        """Bulk-box a long homogeneous int/float list as a stride-24 block."""
        n = len(value)
        if n < _PACK_MIN:
            return None
        if all(type(v) is int for v in value):
            tag, code = TypeTag.INT, "q"
        elif all(type(v) is float for v in value):
            tag, code = TypeTag.FLOAT, "d"
        else:
            return None
        base = self.allocator.alloc(n * _PRIM_SLOT)
        self.ledger.charge(n * self.cost.alloc_ns, "alloc")
        self.space.write(base, encode_prim_run(
            tag, struct.pack(f"<{n}{code}", *value)))
        self.objects_boxed += n
        return list(range(base, base + n * _PRIM_SLOT, _PRIM_SLOT))

    def _box_dict(self, value: dict, memo: Dict[int, int]) -> int:
        addr = self._alloc(HEADER_SIZE + 8 + 2 * PTR_SIZE * len(value))
        memo[id(value)] = addr
        ptrs: List[int] = []
        for k, v in value.items():
            ptrs.append(self._box(k, memo))
            ptrs.append(self._box(v, memo))
        payload = enc.pack_u64(len(value)) + enc.pack_pointers(ptrs)
        self._write_object(addr, TypeTag.DICT, payload)
        return addr

    def _box_ndarray(self, value: NdArrayValue) -> int:
        arr = value.array
        dtype_name = arr.dtype.name
        if dtype_name not in DTYPE_CODES:
            raise SerializationError(f"unsupported ndarray dtype {dtype_name}")
        shape = arr.shape
        meta = enc.pack_u64(len(shape)) + b"".join(
            enc.pack_u64(d) for d in shape)
        meta += enc.pack_u64(DTYPE_CODES[dtype_name])
        payload = meta + arr.tobytes()
        addr = self._alloc(HEADER_SIZE + len(payload))
        self._write_object(addr, TypeTag.NDARRAY, payload)
        return addr

    def _box_dataframe(self, value: DataFrameValue,
                       memo: Dict[int, int]) -> int:
        ptrs: List[int] = []
        keepalive = memo[self._KEEPALIVE]
        for name, cells in value.columns.items():
            column = list(cells)
            # pin the materialized column: its id() is a memo key, so it
            # must outlive the whole box() call (see _KEEPALIVE)
            keepalive.append(column)
            ptrs.append(self._box(name, memo))
            ptrs.append(self._box(column, memo))
        payload = (enc.pack_u64(value.nrows) + enc.pack_u64(value.ncols)
                   + enc.pack_pointers(ptrs))
        addr = self._alloc(HEADER_SIZE + len(payload))
        memo[id(value)] = addr
        self._write_object(addr, TypeTag.DATAFRAME, payload)
        return addr

    def _box_image(self, value: ImageValue) -> int:
        payload = (enc.pack_u64(value.width) + enc.pack_u64(value.height)
                   + enc.pack_u64(_IMAGE_MODES[value.mode]) + value.pixels)
        addr = self._alloc(HEADER_SIZE + len(payload))
        self._write_object(addr, TypeTag.IMAGE, payload)
        return addr

    def _box_model(self, value: MLModelValue, memo: Dict[int, int]) -> int:
        tree_ptrs = [self._box_tree(t, memo) for t in value.trees]
        payload = (enc.pack_u64(value.n_features)
                   + enc.pack_u64(value.n_classes)
                   + enc.pack_u64(value.n_trees)
                   + enc.pack_pointers(tree_ptrs))
        addr = self._alloc(HEADER_SIZE + len(payload))
        memo[id(value)] = addr
        self._write_object(addr, TypeTag.MLMODEL, payload)
        return addr

    def _box_tree(self, value: TreeValue, memo: Dict[int, int]) -> int:
        key = id(value)
        if key in memo:
            return memo[key]
        arrays = [self._box_ndarray(NdArrayValue(a))
                  for a in (value.feature, value.threshold, value.left,
                            value.right, value.value)]
        payload = enc.pack_u64(5) + enc.pack_pointers(arrays)
        addr = self._alloc(HEADER_SIZE + len(payload))
        memo[key] = addr
        self._write_object(addr, TypeTag.TREE, payload)
        return addr

    # ----------------------------------------------------------------- load

    def header_of(self, addr: int) -> Tuple[TypeTag, int, int]:
        """(tag, flags, payload_size) of the object at *addr*."""
        return enc.unpack_header(self.space.read(addr, HEADER_SIZE))

    def object_span(self, addr: int) -> Tuple[int, int]:
        """(start, total bytes) of the object at *addr*."""
        _tag, _flags, size = self.header_of(addr)
        return addr, HEADER_SIZE + size

    def load(self, addr: int) -> Any:
        """Rebuild the Python value rooted at *addr* (may chase remote
        pointers through an rmap'd VMA)."""
        return self._load(addr, {})

    def _load(self, addr: int, memo: Dict[int, Any]) -> Any:
        if addr in memo:
            value = memo[addr]
            if value is _CYCLE_SENTINEL:
                raise SerializationError(
                    f"unsupported cycle through immutable object at "
                    f"{addr:#x}")
            return value
        tag, _flags, size = self.header_of(addr)
        if tag in (TypeTag.NONE, TypeTag.BOOL, TypeTag.INT, TypeTag.FLOAT,
                   TypeTag.STR, TypeTag.BYTES, TypeTag.NDARRAY,
                   TypeTag.IMAGE):
            value = self._load_leaf(tag, addr, size)
            memo[addr] = value
            return value
        if tag in (TypeTag.LIST, TypeTag.TUPLE):
            return self._load_sequence(tag, addr, size, memo)
        if tag == TypeTag.DICT:
            return self._load_dict(addr, size, memo)
        if tag == TypeTag.DATAFRAME:
            return self._load_dataframe(addr, size, memo)
        if tag == TypeTag.MLMODEL:
            return self._load_model(addr, size, memo)
        if tag == TypeTag.TREE:
            return self._load_tree(addr, size, memo)
        raise SerializationError(f"unknown tag {tag} at {addr:#x}")

    def _load_leaf(self, tag: TypeTag, addr: int, size: int) -> Any:
        payload = self.space.read(addr + HEADER_SIZE, size)
        if tag == TypeTag.NONE:
            return None
        if tag == TypeTag.BOOL:
            return bool(enc.unpack_u64(payload))
        if tag == TypeTag.INT:
            return enc.unpack_i64(payload)
        if tag == TypeTag.FLOAT:
            return enc.unpack_f64(payload)
        if tag == TypeTag.STR:
            return payload.decode("utf-8")
        if tag == TypeTag.BYTES:
            return payload
        if tag == TypeTag.NDARRAY:
            return self._decode_ndarray(payload)
        if tag == TypeTag.IMAGE:
            width = enc.unpack_u64(payload, 0)
            height = enc.unpack_u64(payload, 8)
            mode = _IMAGE_CODES[enc.unpack_u64(payload, 16)]
            return ImageValue(width, height, payload[24:], mode=mode)
        raise SerializationError(f"not a leaf tag: {tag}")  # pragma: no cover

    @staticmethod
    def _decode_ndarray(payload: bytes) -> NdArrayValue:
        ndim = enc.unpack_u64(payload, 0)
        shape = tuple(enc.unpack_u64(payload, 8 + 8 * i)
                      for i in range(ndim))
        code = enc.unpack_u64(payload, 8 + 8 * ndim)
        data = payload[16 + 8 * ndim:]
        arr = np.frombuffer(data, dtype=CODE_DTYPES[code]).reshape(shape)
        return NdArrayValue(arr.copy())

    def _child_pointers(self, addr: int, size: int, skip: int = 8
                        ) -> List[int]:
        payload = self.space.read(addr + HEADER_SIZE, size)
        count = (size - skip) // PTR_SIZE
        return enc.unpack_pointers(payload, count, offset=skip)

    def _load_sequence(self, tag: TypeTag, addr: int, size: int,
                       memo: Dict[int, Any]) -> Any:
        payload = self.space.read(addr + HEADER_SIZE, size)
        count = enc.unpack_u64(payload, 0)
        ptrs = enc.unpack_pointers(payload, count, offset=8)
        packed = self._try_load_packed(ptrs)
        if packed is None:
            packed = self._try_load_dense(ptrs)
        if packed is not None:
            value = packed if tag == TypeTag.LIST else tuple(packed)
            memo[addr] = value
            return value
        if tag == TypeTag.LIST:
            out: List[Any] = []
            memo[addr] = out
            out.extend(self._load(p, memo) for p in ptrs)
            return out
        memo[addr] = _CYCLE_SENTINEL
        value = tuple(self._load(p, memo) for p in ptrs)
        memo[addr] = value
        return value

    # Leaf tags decodable from a bulk region read.
    _LEAF_TAGS = frozenset({TypeTag.NONE, TypeTag.BOOL, TypeTag.INT,
                            TypeTag.FLOAT, TypeTag.STR, TypeTag.BYTES})

    def _try_load_dense(self, ptrs: List[int]) -> Optional[List]:
        """Bulk-decode leaf children allocated in one dense region.

        Column cells and dict entries are allocated back-to-back, so one
        region read replaces two reads per object.  Semantically identical
        to element-wise loading (same bytes, same fault behaviour); bails
        to the slow path when a child is a container or the region is
        sparse.
        """
        n = len(ptrs)
        if n < _PACK_MIN:
            return None
        lo, hi = min(ptrs), max(ptrs)
        if hi - lo > 256 * n:
            return None
        tag_hi, _flags, size_hi = self.header_of(hi)
        total = hi + HEADER_SIZE + size_hi - lo
        if total > 512 * n:
            return None
        raw = self.space.read(lo, total)
        out: List[Any] = []
        unpack_header = enc.unpack_header
        for p in ptrs:
            off = p - lo
            tag, _f, size = unpack_header(raw[off:off + HEADER_SIZE])
            if tag not in self._LEAF_TAGS:
                return None
            payload = raw[off + HEADER_SIZE:off + HEADER_SIZE + size]
            if tag == TypeTag.INT:
                out.append(enc.unpack_i64(payload))
            elif tag == TypeTag.STR:
                out.append(payload.decode("utf-8"))
            elif tag == TypeTag.FLOAT:
                out.append(enc.unpack_f64(payload))
            elif tag == TypeTag.BOOL:
                out.append(bool(enc.unpack_u64(payload)))
            elif tag == TypeTag.BYTES:
                out.append(payload)
            else:
                out.append(None)
        return out

    def _try_load_packed(self, ptrs: List[int]) -> Optional[List]:
        """Bulk-decode a stride-24 homogeneous primitive run."""
        run = self.packed_run(ptrs)
        if run is None:
            return None
        tag, values = run
        kind = np.int64 if tag == TypeTag.INT else np.float64
        return values.view(kind).tolist()

    def packed_run(self, ptrs: List[int]
                   ) -> Optional[Tuple[TypeTag, np.ndarray]]:
        """``(tag, u64 payload column)`` when *ptrs* is a stride-24
        homogeneous INT/FLOAT run, read in bulk; else ``None``."""
        if not is_prim_run(ptrs):
            return None
        tag, _flags, size = self.header_of(ptrs[0])
        if size != 8 or tag not in _PACKED_TAGS:
            return None
        raw = self.space.read(ptrs[0], len(ptrs) * _PRIM_SLOT)
        words = np.frombuffer(raw, dtype=np.uint64).reshape(-1, 3)
        # word 0 = tag|flags, word 1 = payload size; verify homogeneity
        if not bool(np.all(words[:, 0] == words[0, 0])):
            return None
        return tag, words[:, 2]

    def _load_dict(self, addr: int, size: int, memo: Dict[int, Any]) -> dict:
        ptrs = self._child_pointers(addr, size)
        dense = self._try_load_dense(ptrs)
        if dense is not None:
            value = dict(zip(dense[0::2], dense[1::2]))
            memo[addr] = value
            return value
        out: Dict[Any, Any] = {}
        memo[addr] = out
        for i in range(0, len(ptrs), 2):
            key = self._load(ptrs[i], memo)
            out[key] = self._load(ptrs[i + 1], memo)
        return out

    def _load_dataframe(self, addr: int, size: int,
                        memo: Dict[int, Any]) -> DataFrameValue:
        payload = self.space.read(addr + HEADER_SIZE, size)
        ncols = enc.unpack_u64(payload, 8)
        ptrs = enc.unpack_pointers(payload, 2 * ncols, offset=16)
        columns: Dict[str, List] = {}
        for i in range(0, len(ptrs), 2):
            name = self._load(ptrs[i], memo)
            columns[name] = self._load(ptrs[i + 1], memo)
        value = DataFrameValue(columns)
        memo[addr] = value
        return value

    def _load_model(self, addr: int, size: int,
                    memo: Dict[int, Any]) -> MLModelValue:
        payload = self.space.read(addr + HEADER_SIZE, size)
        n_features = enc.unpack_u64(payload, 0)
        n_classes = enc.unpack_u64(payload, 8)
        n_trees = enc.unpack_u64(payload, 16)
        ptrs = enc.unpack_pointers(payload, n_trees, offset=24)
        trees = [self._load(p, memo) for p in ptrs]
        value = MLModelValue(trees, n_features, n_classes)
        memo[addr] = value
        return value

    def _load_tree(self, addr: int, size: int,
                   memo: Dict[int, Any]) -> TreeValue:
        ptrs = self._child_pointers(addr, size)
        arrays = [self._load(p, memo).array for p in ptrs]
        value = TreeValue(*arrays)
        memo[addr] = value
        return value

    # ------------------------------------------------------------- children

    def children(self, addr: int) -> List[int]:
        """Child object addresses of the object at *addr*.

        Raises :class:`SerializationError` for types without a usable
        iterator (numpy without the wrapper) — callers fall back to
        non-prefetch mode (Section 4.4).
        """
        tag, _flags, size = self.header_of(addr)
        if tag == TypeTag.NDARRAY and not self.numpy_iterator:
            raise SerializationError(
                "ndarray provides no __iter__ for traversal "
                "(enable numpy_iterator)")
        skip = enc.POINTER_OFFSET.get(tag)
        return [] if skip is None else self._child_pointers(addr, size, skip)

    # ------------------------------------------------------------------- GC

    def add_root(self, addr: int) -> None:
        self.roots.add(addr)

    def remove_root(self, addr: int) -> None:
        self.roots.discard(addr)

    def gc(self) -> int:
        """Mark-sweep over the local heap; returns objects' bytes freed.

        Addresses outside this heap's range — i.e. on a remote, rmap'd heap —
        are *skipped* during marking, per the hybrid GC design (Section 4.3):
        remote lifetimes are managed coarsely by the remote-root proxy.
        """
        marked: Set[int] = set()
        stack = [a for a in self.roots if self.owns(a)]
        while stack:
            addr = stack.pop()
            if addr in marked:
                continue
            marked.add(addr)
            for child in self.children(addr):
                if child not in marked and self.owns(child):
                    stack.append(child)
        if not marked:  # every Container.reset_heap(): no per-object sweep
            return self.allocator.free_all()
        freed = 0
        marked_sorted = sorted(marked)
        for start in self.allocator.allocations_dict():
            # a block is live when any marked address falls inside it
            # (packed primitive runs share one allocation)
            i = bisect_left(marked_sorted, start)
            if i == len(marked_sorted) or marked_sorted[i] >= \
                    start + self.allocator.allocation_size(start):
                freed += self.allocator.free(start)
        return freed

    # ------------------------------------------------------------ utilities

    def bytes_in_use(self) -> int:
        return self.allocator.bytes_in_use

    def count_reachable(self, root: int) -> int:
        """Number of objects reachable from *root* (sub-object counting)."""
        seen: Set[int] = set()
        stack = [root]
        while stack:
            addr = stack.pop()
            if addr in seen:
                continue
            seen.add(addr)
            stack.extend(c for c in self.children(addr) if c not in seen)
        return len(seen)
