"""Simulated datacenter networking: fabric, RDMA verbs, and RPC.

Functional effects (byte movement between machines' physical memories) are
synchronous; their latency is charged to the caller's ledger using constants
calibrated from the paper (4 KB one-sided READ = 3.7 us, kernel-space
connect = 10 us, user-space connect = 10 ms, FaSST RPC ~ 10 us round-trip).
"""

from repro.net.fabric import Fabric
from repro.net.rdma import QueuePair, RdmaNic, ReadRequest
from repro.net.rpc import RpcEndpoint, RpcError
