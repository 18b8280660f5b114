"""Golden diagnostics: an oracle that shares no code with the analyzer.

The strings under ``golden/`` were recorded from the analyzer that kept
its own graph copy (before it became a read view of the catalog's
derivation graph).  Each scenario must reproduce its string byte for
byte both ways: from the catalog's live analyzer queried between the
mutations, and from a fresh analyzer built over the final catalog.

Scenarios are generators: they yield the catalog once it is built and
again after every mutation stage, so the harness decides whether a
live analyzer watches (and queries) along the way.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from repro.analysis.incremental import IncrementalAnalyzer
from repro.catalog.memory import MemoryCatalog
from repro.core.dataset import Dataset
from repro.core.invocation import Invocation
from repro.core.recipe import stamp_recipe
from repro.core.replica import Replica
from repro.core.types import DatasetType
from repro.executor.local import LocalExecutor
from repro.workloads import canonical, hep, sdss

GOLDEN = Path(__file__).parent / "golden"


def sdss_bump(tmp_path):
    """test_incremental.py's materialized campaign, then sdss-brg@2.0."""
    catalog = MemoryCatalog()
    campaign = sdss.define_campaign(catalog, fields=3, fields_per_stripe=3)
    executor = LocalExecutor(catalog, tmp_path)
    sdss.register_bodies(executor)
    sdss.materialize_fields(executor, campaign, galaxies=100)
    executor.materialize(campaign.targets[0])
    yield catalog
    catalog.define(
        'TR sdss-brg@2.0( output brgs, input galaxies, '
        'none maglim="17.0" ) {\n'
        '  argument = "-maglim "${none:maglim};\n'
        "  argument stdin = ${input:galaxies};\n"
        "  argument stdout = ${output:brgs};\n"
        '  exec = "py:sdss-brg";\n'
        "}\n"
    )
    yield catalog


def hep_drop_and_remove(tmp_path):
    """The HEP example run, minus one replica and one derivation."""
    catalog = MemoryCatalog(authority="cms.example")
    executor = LocalExecutor(catalog, tmp_path)
    hep.register_bodies(executor)
    hep.register_analysis_bodies(executor)
    target = hep.define_analysis_chain(
        catalog, "mu2024", bins=("0", "1", "2", "3")
    )
    executor.materialize(target)
    yield catalog
    catalog.remove_replica(catalog.replicas_of("mu2024.hits")[0].replica_id)
    yield catalog
    catalog.remove_derivation("mu2024.sim")
    yield catalog


def canonical_mix(tmp_path):
    """A 2000-node layered DAG under a seeded mutation mix."""
    catalog = MemoryCatalog()
    graph = canonical.generate_graph(catalog, nodes=2000, layers=12, seed=7)
    rng = random.Random(7)
    live = list(graph.derivations)
    removed: list = []
    replicas: list[str] = []

    def stamp(step: int) -> None:
        dv = catalog.get_derivation(rng.choice(live))
        invocation = Invocation(
            derivation_name=dv.name,
            invocation_id=f"gold-inv-{step:04d}",
            start_time=float(step),
        )
        tr = catalog.get_transformation(dv.transformation.name)
        stamp_recipe(invocation, dv, tr)
        catalog.add_invocation(invocation)

    def replicate(step: int) -> None:
        replica = Replica(
            dataset_name=rng.choice(graph.all_datasets),
            location="site-a",
            replica_id=f"gold-r{step:04d}",
        )
        catalog.add_replica(replica)
        replicas.append(replica.replica_id)

    def drop_replica(step: int) -> None:
        if replicas:
            catalog.remove_replica(replicas.pop(rng.randrange(len(replicas))))

    def remove(step: int) -> None:
        name = live.pop(rng.randrange(len(live)))
        removed.append(catalog.get_derivation(name))
        catalog.remove_derivation(name)

    def readd(step: int) -> None:
        if removed:
            dv = removed.pop(rng.randrange(len(removed)))
            catalog.add_derivation(dv)
            live.append(dv.name)

    def retag(step: int) -> None:
        catalog.add_dataset(
            Dataset(
                name=rng.choice(graph.all_datasets),
                dataset_type=DatasetType(
                    content="SDSS", format="Simple", encoding="ASCII"
                ),
            ),
            replace=True,
        )

    def bump(step: int) -> None:
        fanin = rng.randint(1, 3)
        formals = ", ".join(f"input i{k}" for k in range(fanin))
        catalog.define(
            f"TR canon{fanin}@1.{step}( output o, {formals}, "
            'none tag="x" ) { argument stdout = ${output:o}; '
            f'exec = "py:canon{fanin}-{step}"; }}\n'
        )

    # A populated catalog first (replicas and stamped runs to judge),
    # then the mix proper, yielding every few steps.
    for step in range(600):
        (replicate if step % 2 else stamp)(step)
    yield catalog
    mix = [stamp, replicate, drop_replica, remove, remove, readd, retag]
    for step in range(600, 760):
        rng.choice(mix)(step)
        if step % 40 == 0:
            bump(step)
        if step % 8 == 0:
            yield catalog
    yield catalog


def rendered(diagnostics, catalog) -> str:
    """The diagnostics as one JSON string, run-independent.

    Executor-allocated invocation ids come from a process-wide counter,
    so they are rewritten relative to the catalog's first one.
    """
    text = json.dumps([d.as_dict() for d in diagnostics], sort_keys=True)
    allocated = [
        int(i[4:]) for i in catalog.invocation_ids() if re.fullmatch(r"inv-\d{8}", i)
    ]
    base = min(allocated, default=0)
    return re.sub(
        r"inv-(\d{8})", lambda m: f"inv+{int(m.group(1)) - base}", text
    )


def analyze(scenario, tmp_path, incremental: bool) -> str:
    stages = scenario(tmp_path)
    catalog = next(stages)
    if incremental:
        analyzer = catalog.live_analyzer()
        analyzer.diagnostics()
        for _ in stages:
            analyzer.diagnostics()
    else:
        for _ in stages:
            pass
        analyzer = IncrementalAnalyzer(catalog)
    try:
        return rendered(analyzer.diagnostics(), catalog) + "\n"
    finally:
        analyzer.close()


@pytest.mark.parametrize("incremental", [True, False], ids=["live", "fresh"])
@pytest.mark.parametrize(
    "scenario", [sdss_bump, hep_drop_and_remove, canonical_mix], ids=lambda s: s.__name__
)
def test_diagnostics_match_recorded(scenario, incremental, tmp_path):
    expected = (GOLDEN / f"{scenario.__name__}.json").read_text()
    assert analyze(scenario, tmp_path, incremental) == expected
