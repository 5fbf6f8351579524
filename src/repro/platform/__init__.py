"""The serverless platform: a Knative-equivalent workflow executor.

Pieces mirroring Figure 7's architecture:

* :mod:`repro.platform.dag` — workflow DAGs of function specs;
* :mod:`repro.platform.planner` — static virtual-memory address planning
  (Section 4.2), assigning every function instance a disjoint range;
* :mod:`repro.platform.container` — containers realizing the plan
  (link-script base address + ``set_segment``);
* :mod:`repro.platform.scheduler` — placement, container caching and
  autoscaling across pods;
* :mod:`repro.platform.coordinator` — invocation, state-metadata routing,
  and registered-memory reclamation;
* :mod:`repro.platform.cluster` — the user-facing platform facade.
"""

from repro.platform.builder import WorkflowBuilder
from repro.platform.dag import Edge, FunctionSpec, Workflow
from repro.platform.planner import VmPlan, plan_workflow
from repro.platform.container import Container
from repro.platform.scheduler import Scheduler
from repro.platform.coordinator import (FunctionRecord, InvocationRecord,
                                        WorkflowCoordinator)
from repro.platform.cluster import ServerlessPlatform
