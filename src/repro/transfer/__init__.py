"""State-transfer transports between serverless functions.

Implements the five approaches compared in Section 5.1 plus Naos:

* :class:`MessagingTransport` — cloudevents piggybacked through the
  coordinator (pickle + many Knative software hops);
* :class:`StorageTransport` — Pocket-style shared ephemeral storage;
* :class:`StorageRdmaTransport` — DrTM-KV-style RDMA key-value storage
  (modeled 64.6x faster than Pocket per the paper);
* :class:`RmmapTransport` — the paper's contribution, with and without
  semantic-aware prefetch;
* :class:`NaosTransport` — serialization-free RDMA object shipping that
  still traverses/patches pointers (Fig 16b baseline);
* :class:`AdaptiveTransport` — RMMAP with the Section 6 small-object
  fallback to messaging.

All transports share the :class:`StateTransport` interface; results carry a
:class:`TransferBreakdown` mirroring Fig 11's transform / network /
reconstruct stages.
"""

from repro.transfer.base import (Endpoint, StateHandle, StateTransport,
                                 TransferBreakdown, TransferToken,
                                 STAGE_CATEGORIES)
from repro.transfer.messaging import MessagingTransport
from repro.transfer.storage import StorageRdmaTransport, StorageTransport
from repro.transfer.rmmap import RmmapTransport
from repro.transfer.naos import NaosTransport
from repro.transfer.adaptive import AdaptiveTransport
from repro.transfer.compressed import CompressedMessagingTransport
from repro.transfer.registry import get_transport, list_transports
