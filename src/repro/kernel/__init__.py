"""The RMMAP-extended simulated kernel.

Implements Table 1's syscall surface — ``register_mem``, ``rmap``,
``deregister_mem``, ``set_segment`` — plus the remote-pager device that
serves page faults on rmap'd VMAs via one-sided RDMA, the registered-memory
registry with (id, key) authentication, shadow-copy pinning, and lease-based
orphan reclamation (Section 4.1-4.2).
"""

from repro.kernel.machine import Machine
from repro.kernel.registry import Registration, RegistrationRegistry, VmMeta
from repro.kernel.kernel import Kernel, RmapHandle
from repro.kernel.remote_pager import RemoteVMA
