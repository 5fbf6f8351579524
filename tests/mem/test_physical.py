"""Unit tests for physical memory frames and refcounts."""

import pytest

from repro.errors import MemoryError_, OutOfMemory
from repro.mem import PAGE_SIZE, PhysicalMemory


def test_allocate_zeroed_frame():
    pm = PhysicalMemory()
    frame = pm.allocate()
    assert frame.refcount == 1
    assert bytes(frame.data) == b"\x00" * PAGE_SIZE


def test_capacity_enforced():
    pm = PhysicalMemory(capacity_bytes=2 * PAGE_SIZE)
    pm.allocate()
    pm.allocate()
    with pytest.raises(OutOfMemory):
        pm.allocate()


def test_put_frees_at_zero_refcount():
    pm = PhysicalMemory()
    frame = pm.allocate()
    pm.put(frame.pfn)
    with pytest.raises(MemoryError_):
        pm.frame(frame.pfn)
    assert pm.used_frames == 0


def test_get_pins_frame_against_put():
    pm = PhysicalMemory()
    frame = pm.allocate()
    pm.get(frame.pfn)  # shadow-copy pin
    pm.put(frame.pfn)  # producer exits
    assert pm.frame(frame.pfn) is frame  # still alive
    pm.put(frame.pfn)
    assert pm.used_frames == 0


def test_refcount_underflow_detected():
    pm = PhysicalMemory()
    frame = pm.allocate()
    pm.put(frame.pfn)
    with pytest.raises(MemoryError_):
        pm.put(frame.pfn)


def test_duplicate_copies_content():
    pm = PhysicalMemory()
    src = pm.allocate()
    src.data[0:5] = b"hello"
    dst = pm.duplicate(src.pfn)
    assert dst.pfn != src.pfn
    assert bytes(dst.data[0:5]) == b"hello"
    src.data[0] = 0  # independent copies
    assert dst.data[0] == ord("h")


def test_read_frame():
    pm = PhysicalMemory()
    frame = pm.allocate()
    frame.data[100:103] = b"abc"
    data = pm.read_frame(frame.pfn, offset=100, length=3)
    assert type(data) is bytes and data == b"abc"
    assert pm.read_frame(frame.pfn, offset=PAGE_SIZE - 2) == b"\0\0"
    frame.data[100] = 0  # a copy, not a view of the frame
    assert data == b"abc"


def test_frame_rw_bounds_checked():
    pm = PhysicalMemory()
    frame = pm.allocate()
    with pytest.raises(MemoryError_):
        pm.read_frame(frame.pfn, offset=PAGE_SIZE - 1, length=2)
    with pytest.raises(MemoryError_):
        pm.read_frame(frame.pfn, offset=-1, length=2)


def test_peak_tracking():
    pm = PhysicalMemory()
    frames = [pm.allocate() for _ in range(5)]
    for f in frames:
        pm.put(f.pfn)
    assert pm.used_frames == 0
    assert pm.peak_frames == 5


def test_pfn_reuse_after_free():
    pm = PhysicalMemory()
    a = pm.allocate()
    pm.put(a.pfn)
    b = pm.allocate()
    assert b.pfn == a.pfn  # recycled
    assert bytes(b.data) == b"\x00" * PAGE_SIZE
