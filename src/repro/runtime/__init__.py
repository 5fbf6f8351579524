"""The RMMAP-extended managed language runtime.

A miniature CPython-like object runtime whose heap lives *inside* simulated
memory: every object has a 16-byte header and stores references as 64-bit
little-endian virtual addresses.  Because addresses are real, a consumer that
rmaps the producer's range can chase the same pointers untranslated — the
property that eliminates (de)serialization (Section 2.4, Figure 4).

Components:

* :mod:`repro.runtime.objects` — type tags and on-heap object encoding;
* :mod:`repro.runtime.values` — host-side value classes (ndarray, dataframe,
  image, ML model) used to build and compare object graphs;
* :mod:`repro.runtime.heap` — the managed heap: box/load, mark-sweep GC;
* :mod:`repro.runtime.serializer` — the pickle-equivalent baseline;
* :mod:`repro.runtime.traverse` — semantic-aware traversal for prefetching;
* :mod:`repro.runtime.proxy` — remote-root handles and the hybrid GC glue;
* :mod:`repro.runtime.java` — the Java-flavoured runtime variant.
"""

from repro.runtime.heap import ManagedHeap
from repro.runtime.objects import TypeTag
from repro.runtime.proxy import RemoteRoot
from repro.runtime.serializer import SerializedState, Serializer
from repro.runtime.traverse import ObjectTraverser
from repro.runtime.values import (DataFrameValue, ImageValue, MLModelValue,
                                  NdArrayValue)
