"""The ledger's span hooks still find every method they wrap.

``benchmarks/pipeline/layers.py`` patches ``repro`` entry points
through ``owner.__dict__[attr]``, so renaming or moving a hooked method
would otherwise surface only as a crash of the benchmark run.
"""

from benchmarks.pipeline import layers
from benchmarks.pipeline.trace import Tracer, unpatch


def test_every_hook_installs_and_unpatches():
    from repro.executor.grid_executor import GridExecutor
    from repro.executor.local import LocalExecutor
    from repro.planner.dag import Frontier
    from repro.planner.scheduler import WorkflowScheduler

    hooked = [
        (WorkflowScheduler, "run"),
        (LocalExecutor, "materialize"),
        (LocalExecutor, "execute"),
        (GridExecutor, "materialize"),
        (Frontier, "__init__"),
        (Frontier, "ready"),
        (Frontier, "complete"),
    ]
    before = {pair: pair[0].__dict__[pair[1]] for pair in hooked}
    undo = layers.install(Tracer())
    try:
        for owner, attr in hooked:
            assert owner.__dict__[attr] is not before[owner, attr]
    finally:
        unpatch(undo)
    for owner, attr in hooked:
        assert owner.__dict__[attr] is before[owner, attr]
