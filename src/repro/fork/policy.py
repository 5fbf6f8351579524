"""Fleet scale-up policy: cold start vs prewarm pool vs remote fork.

:class:`ScaleUpConfig` is the *fleet-level* vocabulary
(:class:`repro.fleet.runner.FleetSpec.scale_up`): which mechanism a
shard autoscaler uses on every scale-up event.  The latency and
resident-footprint constants the abstract pod model charges for each
mechanism are the module constants below (MITOSIS's numbers, measured
once).  The full-fidelity platform path has no policy object: calling
:meth:`repro.platform.scheduler.Scheduler.enable_fork` turns it on.

``ScaleUpConfig`` is a frozen dataclass so a spec embedding it stays
hashable and its serialized form byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Fleet scale-up mechanisms.
SCALE_UP_COLD = "cold"        # boot a pod from scratch (the default)
SCALE_UP_PREWARM = "prewarm"  # provisioned concurrency: max_pods, always
SCALE_UP_FORK = "fork"        # remote-fork a running pod

SCALE_UP_KINDS = (SCALE_UP_COLD, SCALE_UP_PREWARM, SCALE_UP_FORK)

#: resident frames of a fully-booted pod (128 MB at 4 KB pages)
POD_FRAMES = 32768
#: initial resident frames of a fork-backed pod (2 MB working set)
FORK_FRAMES = 512
#: remote-fork readiness latency: auth RPC + kernel QP connect +
#: coalesced PTE fetch + doorbell-batched working-set pull, plus
#: runtime re-attach slack — millisecond-scale vs the 450 ms boot
FORK_LATENCY_NS = 1_500_000


@dataclass(frozen=True)
class ScaleUpConfig:
    """How a fleet shard adds pods, and what each mechanism costs.

    The abstract pod model charges two currencies per scale-up event:
    *latency* (how long until the new pod serves) and *resident frames*
    (steady-state memory the pod pins).  A cold-booted or prewarmed pod
    is fully resident (:data:`POD_FRAMES`); a fork-backed pod starts at
    its pulled working set (:data:`FORK_FRAMES`) and pages the rest
    lazily — the MITOSIS trade the fork-bench experiment quantifies.
    """

    kind: str = SCALE_UP_COLD

    def __post_init__(self):
        if self.kind not in SCALE_UP_KINDS:
            raise ValueError(f"unknown scale-up kind {self.kind!r}; "
                             f"pick one of {SCALE_UP_KINDS}")

    @classmethod
    def from_kind(cls, kind: str) -> "ScaleUpConfig":
        return cls(kind=str(kind))

    def scale_up_delay_ns(self, cold_start_ns: int) -> int:
        """Readiness delay for one scale-up event under this mechanism."""
        if self.kind == SCALE_UP_FORK:
            return FORK_LATENCY_NS
        if self.kind == SCALE_UP_PREWARM:
            return 0  # the pool is provisioned ahead of demand
        return int(cold_start_ns)

    @staticmethod
    def frames_for(mode: str) -> int:
        """Resident frames of one pod that was started via *mode*."""
        return FORK_FRAMES if mode == SCALE_UP_FORK else POD_FRAMES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "pod_frames": POD_FRAMES,
            "fork_frames": FORK_FRAMES,
            "fork_latency_ns": FORK_LATENCY_NS,
        }
