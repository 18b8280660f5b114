"""Golden schedule of the simulated grid.

A small canonical plan runs on four sites under hardened recovery
(backoff with jitter, breakers, failover) with 5 % transient faults,
once as is and once with a step timeout and a width cap the run
reaches.  Any change to dispatch order, retry timing, the width cap or
the watchdog shows up as a different makespan, event count, retry
total or per-step (site, attempts).  The seed is fixed on purpose (not
``FAULT_SEED``): the figures are exact.
"""

from repro.catalog.memory import MemoryCatalog
from repro.resilience import FaultPlan, RecoveryConfig
from repro.system import VirtualDataSystem
from repro.workloads import canonical

SEED = 1


def run(step_timeout=None, max_hosts=None):
    catalog = MemoryCatalog()
    info = canonical.generate_graph(
        catalog, nodes=60, layers=4, max_fanin=3, seed=5, fast=True
    )
    vds = VirtualDataSystem.with_grid(
        {"anl": 3, "uc": 3, "ufl": 3, "uw": 3},
        catalog=catalog,
        fault_plan=FaultPlan(seed=SEED, transient_rate=0.05),
        recovery=RecoveryConfig.hardened(
            seed=SEED, step_timeout=step_timeout
        ),
    )
    vds.executor.max_retries = 10
    result = vds.materialize(
        tuple(info.sink_datasets), reuse="never", max_hosts=max_hosts
    )
    return vds, result


def per_step(result):
    return {
        name: (outcome.site, outcome.attempts)
        for name, outcome in sorted(result.outcomes.items())
    }


def expected(sites, retried):
    names = [f"cg.n{i:06d}" for i in range(len(sites))]
    return {
        name: (site, retried.get(name, 1))
        for name, site in zip(names, sites)
    }


#: Where each of cg.n000000 .. cg.n000059 succeeded, and the steps
#: that took more than one attempt, without (PLAIN) and with (CAPPED)
#: a step timeout and a width cap.
PLAIN_SITES = (
    "anl anl anl uc uc uc ufl ufl ufl uw uw uw anl uc anl uc uc anl "
    "anl ufl uc anl ufl uw uc ufl uc ufl uc anl uc uw ufl anl ufl ufl "
    "ufl uc anl uw ufl anl anl uw anl anl anl uw uw anl uc anl uw uc "
    "ufl uc ufl uw uc uw"
).split()
PLAIN_RETRIED = {"cg.n000013": 2}

CAPPED_SITES = (
    "anl anl anl uc uc uc ufl ufl ufl uw uw uw ufl ufl anl ufl ufl "
    "anl uw anl uc anl ufl uw uc ufl anl ufl uc anl uc uw ufl uw anl "
    "ufl uw uc anl uw uw anl anl uw uw ufl ufl ufl ufl ufl uw anl uw "
    "ufl anl ufl ufl uw ufl uw"
).split()
CAPPED_RETRIED = {
    "cg.n000012": 3,
    "cg.n000013": 3,
    "cg.n000015": 2,
    "cg.n000018": 2,
    "cg.n000048": 2,
    "cg.n000051": 2,
}


class TestGoldenGrid:
    def test_plain(self):
        vds, result = run()
        assert result.succeeded
        assert result.makespan == 7.300000000000001
        assert vds.simulator.events_processed == 62
        assert sum(o.attempts - 1 for o in result.outcomes.values()) == 1
        assert per_step(result) == expected(PLAIN_SITES, PLAIN_RETRIED)

    def test_step_timeout_and_width_cap(self):
        vds, result = run(step_timeout=1.3, max_hosts=14)
        assert result.succeeded
        assert result.peak_in_flight == 14
        assert result.makespan == 10.088725629191849
        assert vds.simulator.events_processed == 144
        assert sum(o.attempts - 1 for o in result.outcomes.values()) == 8
        assert per_step(result) == expected(CAPPED_SITES, CAPPED_RETRIED)
