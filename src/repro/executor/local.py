"""Local execution of transformations with full provenance capture.

This executor actually runs transformations — as registered Python
callables or real subprocesses — against a sandbox directory, and
records what the schema demands: an
:class:`~repro.core.invocation.Invocation` with timing, environment and
resource usage; :class:`~repro.core.replica.Replica` records with
content digests for every output; and materialized dataset descriptors.

It is the "interactive environment" execution path of §5: "a user could
trigger the invocation of a derivation, and ... this mechanism would
run with low overhead and with response time that is as rapid as the
speed of the transformation itself."
"""

from __future__ import annotations

import os
import platform
import queue
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.catalog.base import VirtualDataCatalog
from repro.core.dataset import Dataset
from repro.core.derivation import Derivation
from repro.core.descriptors import FileDescriptor
from repro.core.invocation import ExecutionContext, Invocation, ResourceUsage
from repro.core.recipe import stamp_recipe
from repro.core.replica import Replica
from repro.core.transformation import SimpleTransformation
from repro.durability.checksum import verify_file
from repro.durability.crashpoints import crashpoint
from repro.durability.recovery import (
    quarantine_file,
    revirtualized,
    sandbox_filename,
)
from repro.errors import ExecutionError, MaterializationError
from repro.executor.process import (
    InvocationOutcome,
    InvocationPayload,
    RunContext,
    exit_with_parent,
    preflight_payload,
    run_invocation,
)
from repro.observability.instrument import NULL, Instrumentation
from repro.planner.dag import Planner
from repro.planner.request import MaterializationRequest
from repro.resilience.policies import (
    FAIL_FAST,
    FAILURE_POLICIES,
)


#: A registered transformation body: receives the context, returns
#: nothing; raises to signal failure.
TransformationBody = Callable[[RunContext], None]


def commit_invocation(
    catalog: VirtualDataCatalog,
    invocation: Invocation,
    outputs: Iterable[tuple[Optional[str], Replica]],
    obs: Instrumentation = NULL,
) -> None:
    """The one provenance commit, for every executor and lane.

    ``outputs`` are ``(formal, replica)`` pairs in the order they are
    to be recorded; ``formal`` (when known) binds the replica in the
    invocation.  Replicas, the datasets they materialize — exactly
    those whose replica carries a file descriptor — and the invocation
    land in one catalog transaction or not at all: a kill inside this
    window leaves either a rollback-able journal/backend transaction
    or nothing, never a replica without its invocation.  Inside a
    caller's own transaction this one extends it.
    """
    label = f"invocation:{invocation.derivation_name}"
    with catalog.transaction(label=label):
        for formal, replica in outputs:
            crashpoint("executor.stage-out")
            catalog.add_replica(replica)
            if formal is not None:
                invocation.replica_bindings[formal] = replica.replica_id
            if isinstance(replica.descriptor, FileDescriptor):
                name = replica.dataset_name
                if catalog.has_dataset(name):
                    ds = catalog._decoded("dataset", name)  # only read
                else:
                    ds = Dataset(name=name)
                catalog.add_dataset(
                    ds.materialized(replica.descriptor), replace=True
                )
        catalog.add_invocation(invocation)
    crashpoint("executor.post-commit")
    if obs.recorder is not None:
        obs.recorder.invocation(invocation)


class LocalExecutor:
    """Runs derivations in a sandbox directory, recording provenance."""

    def __init__(
        self,
        catalog: VirtualDataCatalog,
        workdir: str | Path,
        site_name: str = "local",
        instrumentation: Optional[Instrumentation] = None,
        quarantine_dir: Optional[str | Path] = None,
    ):
        self.catalog = catalog
        # Absolute, so stream redirects and subprocesses (which run
        # inside the sandbox) never resolve a path against the cwd.
        self.workdir = Path(workdir).absolute()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.site_name = site_name
        self.quarantine_dir = (
            Path(quarantine_dir)
            if quarantine_dir
            else self.workdir / "quarantine"
        )
        # Sandbox files verified against their replica checksum, keyed
        # by path with the (size, mtime_ns) stamp seen at verification;
        # lets verify-on-consume cost one stat, not one hash, per reuse.
        self._verified: dict[str, tuple[int, int]] = {}
        self.obs = instrumentation or NULL
        if self.obs.enabled and not self.catalog.obs.enabled:
            # Adopt the catalog into this executor's observability
            # scope unless it already has its own.
            self.catalog.obs = self.obs
        self._bodies: dict[str, TransformationBody] = {}
        # One incremental planner per executor: repeated materialize()
        # calls patch the previous plan instead of re-walking the whole
        # derivation graph (rebuilt lazily if observability is swapped).
        self._planner: Optional[Planner] = None

    # -- registration ---------------------------------------------------------

    def register(self, executable: str, body: TransformationBody) -> None:
        """Bind a Python callable to an executable path.

        When a transformation's ``exec`` matches a registered path the
        callable runs instead of a real subprocess, which is how test
        and example pipelines execute hermetically.
        """
        self._bodies[executable] = body

    def path_for(self, dataset_name: str) -> Path:
        """Sandbox path holding (or destined to hold) a dataset."""
        return self.workdir / sandbox_filename(dataset_name)

    def is_materialized(self, dataset_name: str) -> bool:
        return self.path_for(dataset_name).exists()

    def has_valid_replica(self, dataset_name: str) -> bool:
        """Whether a sandbox copy exists *and* matches its checksum.

        The planner's ``has_replica`` oracle: existence alone is not
        enough once replicas carry content digests — a file that rotted
        (or was half-written when the process died) must not satisfy
        reuse.  On a mismatch the copy is quarantined, its replica
        record removed, and its downstream provenance invalidated, so
        planning transparently re-derives from the recipe.

        Files without a replica record (user-staged sources) verify
        trivially, and clean verifications are cached against the
        file's (size, mtime_ns) so steady-state reuse costs one
        ``stat``, not one hash.
        """
        path = self.path_for(dataset_name)
        try:
            stat = os.stat(path)
        except OSError:
            return False
        matching = [
            replica
            for replica in self.catalog._decoded_replicas_of(dataset_name)
            if isinstance(replica.descriptor, FileDescriptor)
            and replica.descriptor.path == str(path)
        ]
        if not matching:
            return True
        stamp = (stat.st_size, stat.st_mtime_ns)
        if self._verified.get(str(path)) == stamp:
            return True
        for replica in matching:
            if not verify_file(path, size=replica.size, digest=replica.digest):
                self._quarantine_corrupt(dataset_name, replica, path)
                return False
        self._verified[str(path)] = stamp
        return True

    def _quarantine_corrupt(self, dataset_name, replica, path: Path) -> None:
        """Sideline a checksum-mismatched sandbox file and its records."""
        if self.obs.enabled:
            self.obs.count(
                "durability.checksum.failures",
                help="replica checksum/size verification failures",
            )
        from repro.provenance.invalidation import invalidated_by

        # The transaction holds the catalog lock, so the walk over the
        # live graph cannot interleave with another thread's write.
        with self.catalog.transaction(label=f"quarantine:{dataset_name}"):
            tainted = invalidated_by(
                self.catalog.derivation_graph(), bad_datasets=[dataset_name]
            ).tainted_datasets
            for name in sorted({dataset_name, *tainted}):
                target = self.path_for(name)
                if name != dataset_name and not target.exists():
                    continue
                for rep in self.catalog.replicas_of(name):
                    if (
                        isinstance(rep.descriptor, FileDescriptor)
                        and rep.descriptor.path == str(target)
                    ):
                        self.catalog.remove_replica(rep.replica_id)
                if target.exists():
                    quarantine_file(target, self.quarantine_dir)
                self._verified.pop(str(target), None)
                if self.catalog.has_dataset(name):
                    ds = self.catalog.get_dataset(name)
                    if not ds.is_virtual:
                        self.catalog.add_dataset(
                            revirtualized(ds), replace=True
                        )
        if self.obs.recorder is not None:
            self.obs.recorder.event(
                "replica.quarantined",
                dataset=dataset_name,
                replica=replica.replica_id,
                tainted=sorted(tainted),
            )

    # -- execution ---------------------------------------------------------------

    def execute(self, dv: Derivation | str) -> Invocation:
        """Run one derivation now; returns the recorded invocation.

        Inputs must already be materialized in the sandbox.  On
        success, output datasets get replicas (with sha256 digests) and
        file descriptors registered in the catalog.
        """
        if isinstance(dv, str):
            dv = self.catalog.get_derivation(dv)
        try:
            tr, payload = self._build_payload(dv, dv.name)
        except ExecutionError:
            self._count(None)
            raise
        return self._run(dv, tr, payload)

    def _run(self, dv, tr, payload, parent=None) -> Invocation:
        """Run a payload and commit its outcome on the calling thread.

        ``parent`` is the dispatching thread's ``executor.materialize``
        span: pool threads start with an empty context-local span
        stack, so it is adopted explicitly to keep the
        ``executor.execute`` span nested under the materialize span
        rather than becoming a root.
        """
        with self.obs.adopt(parent), self.obs.span(
            "executor.execute", derivation=dv.name
        ):
            outcome = run_invocation(payload, NULL)
            return self._finish(dv, tr, payload, outcome)

    def _build_payload(
        self, dv: Derivation, step_name: str
    ) -> tuple[SimpleTransformation, InvocationPayload]:
        """Bind one derivation into a self-contained payload.

        Performs the pre-run checks: compound transformations are
        refused, every formal must be bound, and inputs must already be
        materialized.
        """
        tr = self.catalog.get_transformation(dv.transformation.name)
        if not isinstance(tr, SimpleTransformation):
            raise ExecutionError(
                f"local executor runs simple transformations only; "
                f"{tr.name!r} is compound (plan it first)"
            )
        values: dict[str, str] = {}
        input_paths: dict[str, str] = {}
        output_paths: dict[str, str] = {}
        output_datasets: dict[str, str] = {}
        parameters: dict[str, str] = {}
        for formal in tr.signature.formals:
            actual = dv.actuals.get(formal.name, formal.default)
            if actual is None:
                raise ExecutionError(
                    f"derivation {dv.name!r}: formal {formal.name!r} unbound"
                )
            if isinstance(actual, str) and formal.is_string:
                values[formal.name] = parameters[formal.name] = actual
                continue
            if isinstance(actual, str):
                # Dataset formal bound via default LFN string.
                path = self.path_for(actual)
                dataset, direction = path.name, formal
            else:
                path = self.path_for(actual.dataset)
                dataset, direction = actual.dataset, actual
            values[formal.name] = str(path)
            if direction.is_input:
                input_paths[formal.name] = str(path)
            if direction.is_output:
                output_paths[formal.name] = str(path)
                output_datasets[formal.name] = dataset
        for formal, path in input_paths.items():
            if not os.path.exists(path):
                raise ExecutionError(
                    f"derivation {dv.name!r}: input {formal!r} "
                    f"({os.path.basename(path)}) is not materialized"
                )
        streams = {}
        for stream_name, rendered in tr.stream_redirects(values).items():
            if not os.path.isabs(rendered):
                # A bare LFN (e.g. a string default): sandbox it.
                rendered = str(self.workdir / rendered.replace("/", "_"))
            streams[stream_name] = rendered
        return tr, InvocationPayload(
            step_name=step_name,
            derivation_name=dv.name,
            executable=tr.executable,
            argv=tuple(tr.command_line(values)),
            environment={
                **dict(dv.environment),
                **tr.rendered_environment(values),
            },
            workdir=str(self.workdir),
            input_paths=input_paths,
            output_paths=output_paths,
            output_datasets=output_datasets,
            parameters=parameters,
            streams=streams,
            body=self._bodies.get(tr.executable),
        )

    def _finish(
        self,
        dv: Derivation,
        tr: SimpleTransformation,
        payload: InvocationPayload,
        outcome: InvocationOutcome,
    ) -> Invocation:
        """Commit one outcome's provenance and count it; raise if the
        step failed.

        Output replicas are recorded in the transformation's formal
        order, with the digests the run computed.  A refusal
        (``outcome.commit`` false) records nothing and is only counted.
        """
        if not outcome.commit:
            self._count(None)
            raise ExecutionError(outcome.error)
        invocation = self._outcome_invocation(dv, tr, payload, outcome)
        outputs = [
            (
                formal,
                Replica(
                    dataset_name=stat.dataset,
                    location=self.site_name,
                    descriptor=FileDescriptor(
                        path=stat.path, size=stat.size
                    ),
                    size=stat.size,
                    digest=stat.digest,
                ),
            )
            for formal, stat in outcome.outputs.items()
        ]
        commit_invocation(self.catalog, invocation, outputs, self.obs)
        for stat in outcome.outputs.values():
            self._verified[stat.path] = (stat.size, stat.mtime_ns)
        self._count(invocation)
        if outcome.status != "success":
            raise ExecutionError(
                f"derivation {dv.name!r} failed: {outcome.error}"
            )
        return invocation

    def _outcome_invocation(self, dv, tr, payload, outcome) -> Invocation:
        """Materialize a run outcome as an Invocation record.

        Ids and the recipe stamp are allocated here, never where the
        payload ran, so workers stay free of catalog concerns.
        """
        invocation = Invocation(
            derivation_name=dv.name,
            status=outcome.status,
            start_time=outcome.started,
            context=ExecutionContext.make(
                site=self.site_name,
                host=platform.node() or "localhost",
                os=platform.system().lower() or "linux",
                processor=platform.machine() or "x86_64",
                environment=dict(payload.environment),
            ),
            usage=ResourceUsage(
                cpu_seconds=outcome.wall_seconds,
                wall_seconds=outcome.wall_seconds,
                bytes_read=outcome.bytes_read,
                bytes_written=outcome.bytes_written,
            ),
            exit_code=outcome.exit_code,
            error=outcome.error,
        )
        stamp_recipe(invocation, dv, tr)
        return invocation

    def _count(self, invocation: Optional[Invocation]) -> None:
        """Account one finished (or refused) step in the metrics."""
        if not self.obs.enabled:
            return
        succeeded = invocation is not None and invocation.status == "success"
        self.obs.count(
            "executor.invocations",
            status="success" if succeeded else "failure",
            help="local executions by terminal status",
        )
        if succeeded:
            self.obs.observe(
                "executor.invocation.seconds",
                invocation.usage.wall_seconds,
                help="wall time per local derivation",
            )
            self.obs.count(
                "executor.bytes_written",
                invocation.usage.bytes_written,
                help="output bytes produced locally",
            )

    # -- end-to-end materialization ------------------------------------------------

    def planner(self) -> Planner:
        """This executor's (incremental) planner, built lazily.

        One planner instance lives as long as the executor so repeated
        ``materialize()`` calls hit its plan cache; it is rebuilt only
        if the executor's instrumentation is swapped out after
        construction (the planner captures ``obs`` at build time).
        """
        if self._planner is None or self._planner.obs is not self.obs:
            self._planner = Planner(
                self.catalog,
                has_replica=self.has_valid_replica,
                instrumentation=self.obs,
                incremental=True,
            )
        return self._planner

    def materialize(
        self,
        target: str,
        reuse: str = "always",
        workers: int = 1,
        failure_policy: Optional[str] = None,
        backend: str = "thread",
    ) -> list[Invocation]:
        """Plan and execute everything needed to produce ``target``.

        Existing sandbox files count as replicas for the reuse policy.
        Returns the invocations performed, ordered by the plan's
        topological order (which for ``workers=1`` is execution order).

        ``workers`` sizes a pool that dispatches the entire ready
        frontier concurrently (§5.4's workflow manager dispatches
        "nodes of the workflow graph when the node's predecessor
        dependencies have completed"); ``workers=1`` on the thread
        backend runs each step on the calling thread instead.
        ``backend`` selects the pool: ``"thread"`` (default) shares the
        interpreter and suits I/O-bound or subprocess-heavy steps;
        ``"process"`` runs registered Python bodies in worker processes
        so CPU-bound steps scale past the GIL (bodies must then be
        module-level functions — see :mod:`repro.executor.process`).
        ``failure_policy`` is one of the PR-3 policies: ``"fail-fast"``
        (default) stops dispatching on the first failure and re-raises
        it once in-flight steps drain; ``"run-what-you-can"`` keeps
        executing steps outside the failed subtree and raises
        :class:`~repro.errors.MaterializationError` at the end.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in ("thread", "process"):
            raise ValueError(
                f"unknown backend {backend!r}; expected 'thread' or "
                f"'process'"
            )
        policy = failure_policy or FAIL_FAST
        if policy not in FAILURE_POLICIES:
            raise ValueError(
                f"unknown failure policy {policy!r}; expected one of "
                f"{FAILURE_POLICIES}"
            )
        with self.obs.span(
            "executor.materialize", targets=target, workers=workers
        ) as mspan:
            with self.obs.phase("plan"):
                plan = self.planner().plan(
                    MaterializationRequest(targets=(target,), reuse=reuse)
                )
            if self.obs.recorder is not None:
                self.obs.recorder.plan(plan)
            if self.obs.progress is not None:
                self.obs.progress.start_plan(plan)
            with self.obs.phase("execute"):
                return self._materialize_pool(
                    plan, workers, policy, backend, mspan
                )

    def _materialize_pool(
        self, plan, workers: int, policy: str, backend: str, parent=None
    ) -> list[Invocation]:
        """Release-driven execution of a plan, on any lane.

        The calling thread owns the scheduling state; the plan's
        :class:`~repro.planner.dag.Frontier` holds its DAG side.  Each
        round submits everything the frontier hands out, in name order,
        then settles a batch of finished steps in topological rank, so
        the cost per step does not depend on the plan's width.  The
        lane decides where a payload runs and which thread commits it;
        a step it refuses waits in the frontier until the next settle.
        """
        order_index = {
            name: i for i, name in enumerate(plan.topological_order())
        }
        frontier = plan.frontier()
        frontier.fail_fast = policy == FAIL_FAST
        completed: dict[str, Invocation] = {}
        failures: dict[str, ExecutionError] = {}
        if backend == "process":
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=exit_with_parent
            )
            lane: _Lane = _ProcessLane(self, parent, pool)
        elif workers == 1:
            lane = _InlineLane(self, parent)
        else:
            lane = _Lane(self, parent, ThreadPoolExecutor(max_workers=workers))
        try:
            while True:
                while (name := frontier.take()) is not None:
                    try:
                        if not lane.submit(plan.steps[name]):
                            frontier.hold(name)
                    except ExecutionError as exc:
                        failures[name] = exc
                        self._settle(frontier, name, None)
                self._obs_in_flight(lane.in_flight)
                if self.obs.recorder is not None:
                    self.obs.recorder.sample(
                        ready=frontier.ready_count(),
                        in_flight=lane.in_flight,
                        completed=len(completed),
                        total=len(plan.steps),
                    )
                batch = lane.wait()
                if not batch:
                    break
                for name in sorted(batch, key=order_index.__getitem__):
                    try:
                        completed[name] = lane.settle(name)
                    except ExecutionError as exc:
                        # Steps downstream of a failure are never
                        # released; everything else keeps flowing.
                        failures[name] = exc
                        self._settle(frontier, name, None)
                    else:
                        self._settle(frontier, name, completed[name])
        finally:
            lane.close()
            self._obs_in_flight(0)
        invocations = [
            completed[name]
            for name in sorted(completed, key=order_index.__getitem__)
        ]
        if failures:
            first = min(failures, key=order_index.__getitem__)
            if policy == FAIL_FAST:
                raise failures[first]
            raise MaterializationError(
                f"{len(failures)} step(s) failed "
                f"({', '.join(sorted(failures))}); "
                f"{len(frontier.skipped)} skipped downstream",
                invocations=invocations,
                failed=failures,
                skipped=frontier.skipped,
            ) from failures[first]
        return invocations

    def _merge_worker_telemetry(self, outcome, parent=None) -> None:
        """Graft one worker's shipped telemetry into the parent's obs.

        Called on the dispatching thread as each outcome settles, so
        merges are serialized and land in settle order.  Clock-skew
        alignment: worker span times are offsets from the worker's
        ``perf_counter`` base, whose epoch differs per process.  The
        worker ships ``wall0`` (its ``time.time()`` at that base);
        wall clocks agree across processes on one host, so
        ``wall0 + offset`` is an absolute wall timestamp, and adding
        this process's ``perf_counter() - time.time()`` delta rebases
        it into the parent's ``perf_counter`` domain — the clock every
        parent span already uses.
        """
        telemetry = getattr(outcome, "telemetry", None)
        if telemetry is None or not self.obs.enabled:
            return
        delta = time.perf_counter() - time.time()
        lane = f"worker-{telemetry.pid}"
        grafted: list = []
        for spec in telemetry.spans:
            if spec.parent is not None and spec.parent < len(grafted):
                span_parent = grafted[spec.parent]
            else:
                # Worker-side roots hang off the dispatching
                # materialize span, keeping the run a single tree.
                span_parent = parent
            attributes = dict(spec.attributes)
            attributes.setdefault("worker_pid", telemetry.pid)
            grafted.append(
                self.obs.tracer.graft(
                    spec.name,
                    telemetry.wall0 + spec.start + delta,
                    telemetry.wall0 + spec.end + delta,
                    parent=span_parent,
                    status=spec.status,
                    error=spec.error,
                    thread=lane,
                    **attributes,
                )
            )
        for metric in telemetry.metrics:
            if metric.kind == "counter":
                self.obs.count(
                    metric.name,
                    metric.value,
                    help=metric.help,
                    **metric.labels,
                )
            else:
                self.obs.observe(
                    metric.name,
                    metric.value,
                    help=metric.help,
                    **metric.labels,
                )
        if self.obs.recorder is not None:
            for event in telemetry.events:
                fields = {
                    k: v for k, v in event.items() if k != "name"
                }
                self.obs.recorder.event(
                    event.get("name", "worker.event"),
                    worker_pid=telemetry.pid,
                    **fields,
                )
            for stream in ("stdout", "stderr"):
                tail = getattr(telemetry, f"{stream}_tail")
                if tail:
                    self.obs.recorder.event(
                        "worker.stream_tail",
                        worker_pid=telemetry.pid,
                        stream=stream,
                        derivation=outcome.derivation_name,
                        tail=tail,
                    )

    def _settle(
        self, frontier, name: str, invocation: Optional[Invocation]
    ) -> None:
        """Complete ``name`` in the frontier, or fail it when it has no
        invocation; publish it, and then what a failure skips (in name
        order), to the recorder and progress sink."""
        if invocation is not None:
            frontier.complete(name)
            status, skipped = "success", []
            start = invocation.start_time
            end = start + invocation.usage.wall_seconds
        else:
            status, skipped = "failure", frontier.fail(name)
            start = end = time.time()
        if self.obs.recorder is not None:
            self.obs.recorder.step(
                name,
                status=status,
                start=start,
                end=end,
                clock="wall",
                site=self.site_name,
            )
            for step in skipped:
                self.obs.recorder.event(
                    "step.skipped", step=step, reason="upstream failure"
                )
        if self.obs.progress is not None:
            self.obs.progress.step_finished(
                name, "ok" if status == "success" else "failed"
            )
            for step in skipped:
                self.obs.progress.step_finished(step, "skipped")

    def _obs_in_flight(self, count: int) -> None:
        if self.obs.enabled:
            self.obs.gauge(
                "executor.pool.in_flight",
                count,
                help="plan steps currently running in the local pool",
            )


class _Lane:
    """What the dispatch loop needs of a backend, and the thread lane:
    a pool thread runs the payload, then commits it itself (the catalog
    serializes its own mutations).

    ``submit`` builds the payload on the calling thread, and refuses
    the step (returns false) while a live step is writing one of the
    same sandbox files — two LFNs can map to one path after
    sanitization; the busy set is touched by the calling thread only.
    ``wait`` returns the live steps that have finished (blocking for
    one), or none when nothing is live.
    """

    def __init__(self, executor: "LocalExecutor", parent=None, pool=None):
        self._executor = executor
        #: The dispatching ``executor.materialize`` span.
        self._parent = parent
        self._pool = pool
        self._live: dict[str, tuple] = {}  # name -> (dv, tr, payload, future)
        self._busy_outputs: set[str] = set()  # sandbox paths being written
        self._finished: queue.SimpleQueue = queue.SimpleQueue()

    @property
    def in_flight(self) -> int:
        return len(self._live)

    def submit(self, step) -> bool:
        dv = step.derivation
        try:
            tr, payload = self._executor._build_payload(dv, step.name)
        except ExecutionError:
            self._executor._count(None)
            raise
        outs = payload.output_paths.values()
        if not self._busy_outputs.isdisjoint(outs):
            return False
        if self._executor.obs.progress is not None:
            self._executor.obs.progress.step_started(step.name)
        future = self._start(dv, tr, payload)
        future.add_done_callback(lambda _: self._finished.put(step.name))
        self._live[step.name] = (dv, tr, payload, future)
        self._busy_outputs.update(outs)
        return True

    def _start(self, dv, tr, payload) -> Future:
        return self._pool.submit(
            self._executor._run, dv, tr, payload, self._parent
        )

    def wait(self) -> list[str]:
        if not self._live:
            return []
        batch = [self._finished.get()]
        while not self._finished.empty():
            batch.append(self._finished.get())
        return batch

    def settle(self, name: str) -> Invocation:
        dv, tr, payload, future = self._live.pop(name)
        self._busy_outputs.difference_update(payload.output_paths.values())
        return self._result(dv, tr, payload, future)

    def _result(self, dv, tr, payload, future) -> Invocation:
        return future.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)


class _InlineLane(_Lane):
    """``workers=1`` on the thread backend: the calling thread runs and
    commits each step as it is submitted.  A failed run raises out of
    ``submit``, so the frontier sees it before anything else is taken —
    under fail-fast nothing behind it runs.  Each round is one level of
    the plan, so a clean run goes in the plan's topological order."""

    def _start(self, dv, tr, payload) -> Future:
        future: Future = Future()
        future.set_result(self._executor._run(dv, tr, payload, self._parent))
        return future


class _ProcessLane(_Lane):
    """Process backend: a worker process runs the payload and hashes
    its outputs, touching no catalog or lock.  The calling thread
    commits each outcome as it settles the step, before the step's
    dependents are released — so upstream provenance always lands
    first.  A worker's telemetry is merged even when there is nothing
    to commit: failed steps are the ones whose trace matters.
    """

    def _start(self, dv, tr, payload) -> Future:
        # Pickle-preflighted so a failure names the offending field.
        try:
            preflight_payload(payload)
        except ExecutionError:
            self._executor._count(None)
            raise
        return self._pool.submit(run_invocation, payload)

    def _result(self, dv, tr, payload, future) -> Invocation:
        try:
            outcome = future.result()
        except Exception as exc:
            # A worker died hard (pool broken, unpicklable outcome):
            # fail the step without provenance.
            self._executor._count(None)
            raise ExecutionError(
                f"derivation {dv.name!r}: worker failed "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        try:
            return self._executor._finish(dv, tr, payload, outcome)
        finally:
            self._executor._merge_worker_telemetry(outcome, self._parent)
