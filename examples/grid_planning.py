#!/usr/bin/env python3
"""Grid request planning: estimation, shipping patterns, reuse (§5).

A production manager's session on the virtual data grid:

1. estimate a workflow before committing resources ("can it be
   computed in the time I'm willing to wait?");
2. compare the four data/procedure shipping patterns for a
   data-heavy step;
3. watch the rerun-vs-retrieve decision flip as relative costs change;
4. find what to re-run after a calibration error (the §2 provenance
   question), from the catalog's derivation graph.

Run:  python examples/grid_planning.py
"""

from repro.provenance import invalidated_by
from repro.system import VirtualDataSystem

VDL = """
TR calibrate( output cal, input raw ) {
  argument stdin = ${input:raw};
  argument stdout = ${output:cal};
  exec = "/opt/calibrate";
}
TR reconstruct( output dst, input cal ) {
  argument stdin = ${input:cal};
  argument stdout = ${output:dst};
  exec = "/opt/reconstruct";
}
TR analyze( output plot, input dst ) {
  argument stdin = ${input:dst};
  argument stdout = ${output:plot};
  exec = "/opt/analyze";
}
DV c1->calibrate( cal=@{output:"cal.2003"}, raw=@{input:"raw.2003"} );
DV r1->reconstruct( dst=@{output:"dst.2003"}, cal=@{input:"cal.2003"} );
DV a1->analyze( plot=@{output:"mass.plot"}, dst=@{input:"dst.2003"} );
"""


def build():
    vds = VirtualDataSystem.with_grid(
        {"fnal": 2, "cern": 64}, authority="plan.example", bandwidth=10e6
    )
    vds.define(VDL)
    for name, cpu, out_bytes in (
        ("calibrate", 120.0, 200_000_000),
        ("reconstruct", 300.0, 80_000_000),
        ("analyze", 30.0, 1_000_000),
    ):
        tr = vds.catalog.get_transformation(name)
        tr.attributes.set("cost.cpu_seconds", cpu)
        tr.attributes.set("cost.output_bytes", out_bytes)
        vds.catalog.add_transformation(tr, replace=True)
    vds.seed_dataset("raw.2003", "fnal", 500_000_000)
    return vds


def main():
    vds = build()

    # 1. Estimation before derivation.
    plan = vds.plan("mass.plot", reuse="never")
    estimate = vds.estimate(plan)
    print(f"plan: {len(plan)} steps, depth {plan.depth()}")
    print(
        f"estimated: {estimate.makespan_seconds:.0f} s makespan, "
        f"{estimate.total_cpu_seconds:.0f} cpu s"
    )
    for deadline in (100, 1000):
        feasible = estimate.meets_deadline(deadline)
        print(f"  can it finish within {deadline} s? {feasible}")

    # 2. Shipping patterns for the data-heavy first step.
    print("\nshipping patterns (raw.2003 is 500 MB at fnal):")
    vds.selector.procedures.install("calibrate", "cern")
    vds.selector.procedures.set_size("calibrate", 5_000_000)
    step = plan.steps["c1"]
    for pattern in ("collocate", "ship-procedure", "ship-data", "ship-both"):
        choice = vds.selector.choose(step, pattern, now=vds.simulator.now)
        print(
            f"  {pattern:>14}: run at {choice.site:<5} "
            f"(+{choice.transfer_seconds:.1f}s transfer, "
            f"procedure move: {choice.ship_procedure})"
        )

    # 3. Derive, then watch reuse kick in.
    result = vds.materialize("mass.plot", reuse="never")
    print(f"\nfirst run: {result.makespan:.0f} s on "
          f"{len(result.sites_used())} site(s)")
    second = vds.plan("mass.plot", reuse="cost")
    print(
        f"second request plans {len(second)} steps "
        f"(reused: {sorted(second.reused)})"
    )

    # 4. A calibration error in cal.2003: everything downstream of it
    #    is tainted, and its producer re-runs with the chain.
    report = invalidated_by(
        vds.catalog.derivation_graph(), bad_datasets=["cal.2003"]
    )
    print(
        "\nafter a calibration error in cal.2003:\n"
        f"  tainted datasets: {sorted(report.tainted_datasets)}\n"
        f"  derivations to re-run: {sorted(report.rerun_derivations)}"
    )

if __name__ == "__main__":
    main()
