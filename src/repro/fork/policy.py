"""Scale-up policy: cold start vs prewarm pool vs remote fork.

Two policy objects live here because two layers consume them:

* :class:`ForkPolicy` parameterizes the *full-fidelity* platform path
  (:meth:`repro.platform.scheduler.Scheduler.enable_fork`): page-table
  mode, working-set prefetch size, and whether fork is allowed at all.
* :class:`ScaleUpConfig` is the *fleet-level* vocabulary
  (:class:`repro.fleet.runner.FleetSpec.scale_up`): which mechanism a
  shard autoscaler uses on every scale-up event, plus the latency and
  resident-footprint constants the abstract pod model charges for each.

Both are frozen dataclasses so a spec embedding them stays hashable and
its serialized form byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.kernel.kernel import PT_EAGER, PT_ONDEMAND

#: Platform fork-policy modes.
MODE_AUTO = "auto"    # fork whenever a live source exists, else cold
MODE_COLD = "cold"    # never fork; the policy-off baseline

#: Fleet scale-up mechanisms.
SCALE_UP_COLD = "cold"        # boot a pod from scratch (the default)
SCALE_UP_PREWARM = "prewarm"  # provisioned concurrency: max_pods, always
SCALE_UP_FORK = "fork"        # remote-fork a running pod

SCALE_UP_KINDS = (SCALE_UP_COLD, SCALE_UP_PREWARM, SCALE_UP_FORK)


@dataclass(frozen=True)
class ForkPolicy:
    """Knobs for the platform-level remote-fork path."""

    mode: str = MODE_AUTO
    #: PTE metadata strategy for the child's remote mapping: on-demand
    #: (with coalesced region fetches) keeps fork setup O(working set)
    #: even for fat parent address spaces; eager ships the whole
    #: snapshot on the auth RPC.
    page_table_mode: str = PT_ONDEMAND
    #: pages pulled eagerly at fork time (doorbell-batched); the rest
    #: arrive lazily on first fault.  0 disables the prefetch.
    working_set_pages: int = 64
    #: degrade page pulls to two-sided RPCs when the QP breaks but the
    #: source machine is still up (reuses the PR-1 resilience knob)
    rpc_fallback: bool = True

    def __post_init__(self):
        if self.mode not in (MODE_AUTO, MODE_COLD):
            raise ValueError(f"unknown fork mode {self.mode!r}")
        if self.page_table_mode not in (PT_EAGER, PT_ONDEMAND):
            raise ValueError(
                f"unknown page_table_mode {self.page_table_mode!r}")
        if self.working_set_pages < 0:
            raise ValueError("working_set_pages must be >= 0")

    def allows_fork(self) -> bool:
        return self.mode == MODE_AUTO


@dataclass(frozen=True)
class ScaleUpConfig:
    """How a fleet shard adds pods, and what each mechanism costs.

    The abstract pod model charges two currencies per scale-up event:
    *latency* (how long until the new pod serves) and *resident frames*
    (steady-state memory the pod pins).  A cold-booted or prewarmed pod
    is fully resident (``pod_frames``); a fork-backed pod starts at its
    pulled working set (``fork_frames``) and pages the rest lazily —
    the MITOSIS trade the fork-bench experiment quantifies.
    """

    kind: str = SCALE_UP_COLD
    #: resident frames of a fully-booted pod (128 MB at 4 KB pages)
    pod_frames: int = 32768
    #: initial resident frames of a fork-backed pod (2 MB working set)
    fork_frames: int = 512
    #: remote-fork readiness latency: auth RPC + kernel QP connect +
    #: coalesced PTE fetch + doorbell-batched working-set pull, plus
    #: runtime re-attach slack — millisecond-scale vs the 450 ms boot
    fork_latency_ns: int = 1_500_000

    def __post_init__(self):
        if self.kind not in SCALE_UP_KINDS:
            raise ValueError(f"unknown scale-up kind {self.kind!r}; "
                             f"pick one of {SCALE_UP_KINDS}")
        if self.pod_frames < 1 or self.fork_frames < 1:
            raise ValueError("frame footprints must be positive")
        if self.fork_latency_ns < 0:
            raise ValueError("fork_latency_ns must be >= 0")

    @classmethod
    def from_kind(cls, kind: str) -> "ScaleUpConfig":
        return cls(kind=str(kind))

    def scale_up_delay_ns(self, cold_start_ns: int) -> int:
        """Readiness delay for one scale-up event under this mechanism."""
        if self.kind == SCALE_UP_FORK:
            return self.fork_latency_ns
        if self.kind == SCALE_UP_PREWARM:
            return 0  # the pool is provisioned ahead of demand
        return int(cold_start_ns)

    def frames_for(self, mode: str) -> int:
        """Resident frames of one pod that was started via *mode*."""
        return self.fork_frames if mode == SCALE_UP_FORK \
            else self.pod_frames

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "pod_frames": self.pod_frames,
            "fork_frames": self.fork_frames,
            "fork_latency_ns": self.fork_latency_ns,
        }
