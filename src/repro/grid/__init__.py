"""The simulated data grid substrate (§4.3, §5.2).

Replaces the paper's Globus/Condor testbed: a deterministic
discrete-event simulator, sites with compute/storage elements, a
network topology with transfer accounting, a replica location service,
and a GRAM-like job submission service.
"""

from repro.grid.gram import (
    GridExecutionService,
    JOB_STATES,
    JobRecord,
    JobSpec,
)
from repro.grid.network import (
    DEFAULT_BANDWIDTH,
    DEFAULT_LATENCY,
    Link,
    LinkStats,
    NetworkTopology,
    star_topology,
    uniform_topology,
)
from repro.grid.replica_catalog import ReplicaLocationService
from repro.grid.simulator import Simulator
from repro.grid.site import ComputeElement, Host, Site, StorageElement, StoredFile

__all__ = [
    "ComputeElement",
    "DEFAULT_BANDWIDTH",
    "DEFAULT_LATENCY",
    "GridExecutionService",
    "Host",
    "JOB_STATES",
    "JobRecord",
    "JobSpec",
    "Link",
    "LinkStats",
    "NetworkTopology",
    "ReplicaLocationService",
    "Simulator",
    "Site",
    "StorageElement",
    "StoredFile",
    "star_topology",
    "uniform_topology",
]
