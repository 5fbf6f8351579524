"""repro.fork — RDMA-codesigned remote fork as a scale-up mechanism.

Instead of booting a new container (450 ms cold start) or keeping a
fully-resident prewarm pool, the platform can *fork* a running
container onto another machine: the child's address space is rmapped
copy-on-write from the parent's kernel registration, pages arrive
lazily over one-sided RDMA READs, and only the pulled working set is
resident.  See ``docs/fork.md`` for the design and the fork-bench
experiment comparing the three mechanisms.
"""

from repro.fork.policy import (SCALE_UP_COLD, SCALE_UP_FORK, SCALE_UP_KINDS,
                               SCALE_UP_PREWARM, ScaleUpConfig)
from repro.fork.remote import ForkedContainer, remote_fork
from repro.fork.source import ForkManager, ForkSource, fork_fid, fork_key
