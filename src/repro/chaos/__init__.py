"""repro.chaos — deterministic fault injection and resilience policies.

The subsystem has two halves:

* **Injection**: :class:`FaultSchedule` + :class:`FaultInjector` turn typed
  fault events (machine crash/restart, link flap, QP break, latency spike,
  OOM kill, coordinator crash) into exact-instant mutations of the
  simulated cluster, scheduled through
  :meth:`~repro.sim.engine.Engine.call_at` so they interleave
  deterministically with everything else.

* **Resilience**: :class:`ResiliencePolicy` (retry with backoff + jitter,
  per-syscall timeouts, circuit breaker, RMMAP→RPC transport degradation,
  producer re-execution) opts the workflow coordinator into recovering
  from those faults; the default remains fail-stop, so nothing changes
  for non-chaos experiments.

:func:`run_chaos_workflow` composes both over the Fig-14 workflows and
returns a :class:`~repro.analysis.chaos.ChaosReport` whose fingerprint is
a pure function of ``(workload, seed, schedule)``.
"""

from repro.chaos.faults import (CoordinatorCrash, Fault, ForkSourceCrash,
                                LatencySpike, LinkFlap, MachineCrash,
                                OomKill, QpBreak)
from repro.chaos.injector import FaultInjector
from repro.chaos.policies import (RECOVERABLE_FAULTS, CircuitBreaker,
                                  ResiliencePolicy, RetryPolicy)
from repro.chaos.runner import default_transport, run_chaos_workflow
from repro.chaos.schedule import FaultSchedule, random_schedule
