"""repro.fleet — open-loop traffic generation and sharded serving.

The paper evaluates single workflow invocations; this package turns the
reproduction into a *fleet*: deterministic seeded arrival processes
(:mod:`repro.fleet.traffic`) drive per-tenant traffic mixes across the
registered workloads and transports, and a sharded coordinator layer
(:mod:`repro.fleet.shard`) serves them — consistent-hash tenant
placement (:mod:`repro.fleet.placement`), token-bucket admission control
(:mod:`repro.fleet.admission`), per-shard autoscaled pod capacity, and
deterministic shard failover.  :func:`repro.fleet.runner.run_fleet`
ties everything together and returns a :class:`FleetResult` whose JSON
is byte-identical at a fixed seed.

Quick use::

    from repro.fleet import run_fleet, smoke_spec

    result = run_fleet(smoke_spec(seed=0))
    print(result.render())

See ``docs/fleet.md`` for the arrival-process math, the mix spec
format, and the shard architecture.
"""

from repro.fleet.admission import (AdmissionController, REJECT_QUEUE_FULL,
                                   REJECT_RATE_LIMIT, REJECT_SHARD_DOWN,
                                   Rejection, TokenBucket)
from repro.fleet.placement import HashRing
from repro.fork.policy import ScaleUpConfig
from repro.fleet.shard import (CoordinatorShard, ShardAutoscaler,
                               ShardedCoordinator)
from repro.fleet.traffic import (ArrivalProcess, BurstyArrivals,
                                 DiurnalArrivals, PoissonArrivals,
                                 TenantSpec, TrafficMix, default_tenants)
from repro.fleet.runner import (FleetResult, FleetSpec, ServiceProfile,
                                run_fleet, smoke_spec)
