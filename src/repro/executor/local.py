"""Local execution of transformations with full provenance capture.

This executor actually runs transformations — as registered Python
callables or real subprocesses — against a sandbox directory, and
records what the schema demands: an
:class:`~repro.core.invocation.Invocation` with timing, environment and
resource usage; :class:`~repro.core.replica.Replica` records with
content digests for every output, which is what makes each output
dataset materialized.

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
import weakref
from pathlib import Path
from threading import Event, Thread
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.catalog.base import VirtualDataCatalog
from repro.core.derivation import Derivation
from repro.core.descriptors import FileDescriptor
from repro.core.invocation import ExecutionContext, Invocation, ResourceUsage
from repro.core.recipe import stamp_recipe
from repro.core.replica import Replica
from repro.core.transformation import SimpleTransformation
from repro.durability.checksum import verify_file
from repro.durability.crashpoints import crashpoint
from repro.durability.recovery import quarantine_file, sandbox_filename
from repro.errors import ExecutionError, MaterializationError
from repro.executor.driver import UNTIL_SETTLED, Attempt, Driver
from repro.executor.process import (
    InvocationOutcome,
    InvocationPayload,
    RunContext,
    WorkerPool,
    file_stamp,
    preflight_payload,
    run_invocation,
    run_pickled,
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
    invocation.  The replicas and the invocation land in one catalog
    transaction or not at all: a kill inside this window leaves either
    a rollback-able journal/backend transaction or nothing, never a
    replica without its invocation.  Inside a caller's own transaction
    this one extends it.  Dataset records are not written: a replica
    is what makes a dataset materialized
    (:meth:`~repro.catalog.base.VirtualDataCatalog.is_materialized`).
    """
    label = f"invocation:{invocation.derivation_name}"
    with catalog.transaction(label=label):
        for formal, replica in outputs:
            crashpoint("executor.stage-out")
            catalog.add_replica(replica)
            if formal is not None:
                invocation.replica_bindings[formal] = replica.replica_id
        catalog.add_invocation(invocation)
    crashpoint("executor.post-commit")
    if obs.recorder is not None:
        obs.recorder.invocation(invocation)


#: Host, OS and CPU of this process, stamped on every invocation.
_HOST = dict(
    host=platform.node() or "localhost",
    os=platform.system().lower() or "linux",
    processor=platform.machine() or "x86_64",
)


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
        self._root = str(self.workdir)
        self.site_name = site_name
        self.quarantine_dir = (
            Path(quarantine_dir)
            if quarantine_dir
            else self.workdir / "quarantine"
        )
        # Sandbox files verified against their replica checksum, keyed
        # by path with the file_stamp seen at verification; lets
        # verify-on-consume cost one stat, not one hash, per reuse.
        self._verified: dict[str, tuple[int, int, int, int]] = {}
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
        return Path(self._sandbox_path(dataset_name))

    def _sandbox_path(self, dataset_name: str) -> str:
        """:meth:`path_for` as a string, joined without pathlib."""
        return os.path.join(self._root, sandbox_filename(dataset_name))

    def verify_replica(self, dataset_name: str) -> bool:
        """Whether a sandbox copy exists *and* matches its checksum.

        Read-only: a corrupt copy is reported, not touched.  ``repro
        plan`` asks this, so it predicts exactly what
        :meth:`has_valid_replica` lets a materialization reuse.
        """
        return self._verify(dataset_name)[0]

    def has_valid_replica(self, dataset_name: str) -> bool:
        """:meth:`verify_replica`, quarantining what fails it.

        The planner's ``has_replica`` oracle when materializing:
        existence alone is not enough once replicas carry content
        digests — a file that rotted (or was half-written when the
        process died) must not satisfy reuse.  On a mismatch the copy
        is quarantined, its replica record removed, and its downstream
        provenance invalidated, so planning transparently re-derives
        from the recipe.
        """
        valid, corrupt = self._verify(dataset_name)
        if corrupt is not None:
            self._quarantine_corrupt(dataset_name, corrupt)
        return valid

    def _verify(self, dataset_name: str) -> tuple[bool, Optional[Replica]]:
        """(valid, the replica record the sandbox copy fails, if any).

        Files without a replica record (user-staged sources) verify
        trivially, and clean verifications are cached against the
        file's :func:`~repro.executor.process.file_stamp` so
        steady-state reuse costs one ``stat``, not one hash.
        """
        path = self.path_for(dataset_name)
        try:
            stat = os.stat(path)
        except OSError:
            return False, None
        matching = [
            replica
            for replica in self.catalog._replica_records_of(dataset_name)
            if isinstance(replica.descriptor, FileDescriptor)
            and replica.descriptor.path == str(path)
        ]
        if not matching:
            return True, None
        stamp = file_stamp(stat)
        if self._verified.get(str(path)) == stamp:
            return True, None
        for replica in matching:
            if not verify_file(path, size=replica.size, digest=replica.digest):
                return False, replica
        self._verified[str(path)] = stamp
        return True, None

    def _quarantine_corrupt(self, dataset_name: str, replica: Replica) -> None:
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
        success, output datasets get replicas (with sha256 digests and
        file descriptors) registered in the catalog.
        """
        if isinstance(dv, str):
            dv = self.catalog.get_derivation(dv)
        try:
            tr, payload = self._build_payload(dv, dv.name)
        except ExecutionError:
            self._count(None)
            raise
        return self._finish(dv, tr, payload, self._execute(payload))

    def _execute(self, payload, parent=None) -> InvocationOutcome:
        """Run a payload in the step's ``executor.execute`` span, on
        whichever thread calls; the calling thread commits it.
        ``parent``, the dispatching ``executor.materialize`` span, is
        adopted explicitly: a pool thread's context-local span stack
        starts empty, and the span must not become a root."""
        with self.obs.adopt(parent), self.obs.span(
            "executor.execute", derivation=payload.derivation_name
        ):
            return run_invocation(payload, NULL)

    def _build_payload(
        self, dv: Derivation, step_name: str
    ) -> tuple[SimpleTransformation, InvocationPayload]:
        """Bind one derivation into a self-contained payload.

        Performs the pre-run checks: compound transformations are
        refused, every formal must be bound, and inputs must already be
        materialized.  The transformation is the catalog's shared
        record: the payload, the commit and the recipe stamp only read
        it.
        """
        tr = self.catalog._transformation_record(dv.transformation.name)
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
                dataset, direction = sandbox_filename(actual), formal
            else:
                dataset, direction = actual.dataset, actual
            path = values[formal.name] = self._sandbox_path(dataset)
            if direction.is_input:
                input_paths[formal.name] = path
            if direction.is_output:
                output_paths[formal.name] = path
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
                rendered = os.path.join(self._root, rendered.replace("/", "_"))
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
            workdir=self._root,
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
            self._verified[stat.path] = stat.stamp
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
                environment=payload.environment,
                **_HOST,
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
            # The executor owns its planner: the oracle reaches back
            # weakly, and a replaced planner is freed (and stops
            # hearing catalog events) at once.
            executor = weakref.ref(self)
            self._planner = Planner(
                self.catalog,
                has_replica=lambda name: executor().has_valid_replica(name),
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
        backend runs each step on the calling thread instead.  Either
        way the calling thread commits every step.  ``backend``:
        ``"thread"`` (default) suits I/O-bound or subprocess-heavy
        steps; ``"process"`` runs registered Python bodies (module-level
        functions) in worker processes, past the GIL.
        ``failure_policy``: ``"fail-fast"`` (default) stops dispatching
        on the first failure and re-raises it once in-flight steps
        drain; ``"run-what-you-can"`` keeps executing steps outside the
        failed subtree and raises
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
            with self.obs.phase("execute"):
                lane = self._lane(plan, workers, backend, mspan)
                try:
                    driver = Driver(
                        plan, lane, self.obs, fail_fast=policy == FAIL_FAST
                    )
                    driver.run()
                finally:
                    lane.close()
                invocations, error = self._results(driver, lane.rank, policy)
                if error is None:
                    return invocations
                try:
                    raise error
                finally:
                    error = None  # held by this frame, it would hold the run

    def _preflight(self, payload: InvocationPayload) -> bytes:
        """A process-lane job: the payload pickled once (a failure names
        the offending field); the worker unpickles these very bytes."""
        try:
            return preflight_payload(payload)
        except ExecutionError:
            self._count(None)
            raise

    def _lane(self, plan, workers: int, backend: str, parent) -> "_Lane":
        if backend == "process":
            pool = WorkerPool(run_pickled, workers)
            return _Lane(self, plan, parent, pool, job=self._preflight)
        if workers == 1:
            return _InlineLane(self, plan, parent)
        pool = ThreadPool(lambda job: self._execute(job, parent), workers)
        return _Lane(self, plan, parent, pool)

    @staticmethod
    def _results(driver: Driver, rank, policy: str) -> tuple[list, Any]:
        """The invocations a run performed, in topological order, and
        the error its failures come to, or None.  The outcomes leave the
        driver: a step error's traceback holds the driver's frames."""
        outcomes, driver.outcomes = driver.outcomes, {}
        settled = sorted(outcomes, key=rank.__getitem__)
        invocations = [
            outcomes[name].value for name in settled if outcomes[name].ok
        ]
        failures = {
            name: outcomes[name].error
            for name in settled
            if not outcomes[name].ok
        }
        if not failures or policy == FAIL_FAST:
            return invocations, next(iter(failures.values()), None)
        error = MaterializationError(
            f"{len(failures)} step(s) failed "
            f"({', '.join(sorted(failures))}); "
            f"{len(driver.skipped)} skipped downstream",
            invocations=invocations,
            failed=failures,
            skipped=set(driver.skipped),
        )
        error.__cause__ = next(iter(failures.values()))
        return invocations, error

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
        # Worker metrics live in a ``worker.*`` namespace: this process
        # counts ``executor.*`` itself when it commits.
        self.obs.count(
            "worker.invocations",
            help="invocations executed in worker processes",
            status=outcome.status,
        )
        self.obs.observe(
            "worker.invocation.seconds",
            outcome.wall_seconds,
            help="worker-side wall time per invocation",
        )
        if outcome.bytes_written:
            self.obs.count(
                "worker.bytes_written",
                outcome.bytes_written,
                help="bytes written by worker processes",
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


class ThreadPool:
    """The thread lane's pool, :class:`WorkerPool`'s thread twin: a
    job's result is ``fn(job)``, or the exception it raised.  The
    calling thread is woken only once fewer jobs wait than there are
    threads: it then commits the whole batch, instead of contending
    with the threads for the GIL after every step."""

    def __init__(self, fn: Callable[[Any], Any], workers: int):
        self._fn, self._size = fn, workers
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._done: list[tuple[str, Any]] = []
        self._wake = Event()
        self._threads = [Thread(target=self._serve) for _ in range(workers)]
        for thread in self._threads:
            thread.start()

    def _serve(self) -> None:
        while (item := self._jobs.get()) is not None:
            try:
                result = self._fn(item[1])
            except BaseException as exc:  # a dead thread would hang the run
                result = exc
            self._done.append((item[0], result))
            if self._jobs.qsize() < self._size:
                self._wake.set()

    def submit(self, name: str, job: Any) -> None:
        self._jobs.put((name, job))

    def wait(self) -> list[tuple[str, Any]]:
        batch: list[tuple[str, Any]] = []
        while not batch:
            self._wake.wait()
            self._wake.clear()
            batch = self._done[:]
            del self._done[: len(batch)]
        return batch

    def close(self) -> None:
        for _ in self._threads:
            self._jobs.put(None)
        for thread in self._threads:
            thread.join()


class _Lane:
    """The thread lane, and what every local lane shares as a driver
    backend.  The pool (a :class:`ThreadPool` or a
    :class:`WorkerPool`) only runs payloads; the calling thread commits
    every outcome (invocation, replicas, recipe stamp) as it settles
    the step, so one thread writes the catalog and upstream provenance
    lands before a dependent starts.

    ``admit`` builds the payload on the calling thread, and holds the
    step back while a live step is writing one of the same sandbox
    files — two LFNs can map to one path after sanitization; the busy
    set is touched by the calling thread only.  ``run`` blocks for a
    batch of finished steps and settles it in topological rank, so the
    cost per step does not depend on the plan's width.  The lanes
    never retry (``max_retries`` stays 0), so they keep no timers.
    """

    namespace = "executor.pool"
    clock = "wall"

    def __init__(
        self, executor: LocalExecutor, plan, parent=None, pool=None, job=None
    ):
        self._executor = executor
        self._steps = plan.steps
        #: Step -> topological rank: the order a batch settles in.
        self.rank = {n: i for i, n in enumerate(plan.topological_order())}
        #: The dispatching ``executor.materialize`` span.
        self._parent = parent
        self._pool = pool
        #: What the pool is handed for a step's payload.
        self._job = job or (lambda payload: payload)
        self._live: dict[str, Any] = {}  # name -> (dv, tr, payload)
        self._busy_outputs: set[str] = set()  # sandbox paths being written
        #: What ``admit`` prepared for ``start``: (dv, tr, payload), or
        #: the error that building the payload raised.
        self._admitted: Any = None

    def now(self) -> float:
        return time.time()

    def later(self, delay: float, fn: Callable[[], None]) -> None:
        raise NotImplementedError("local lanes keep no timers")

    def admit(self, name: str) -> Optional[float]:
        dv = self._steps[name].derivation
        try:
            tr, payload = self._executor._build_payload(dv, name)
        except ExecutionError as exc:
            self._executor._count(None)
            self._admitted = exc
            return None
        if not self._busy_outputs.isdisjoint(payload.output_paths.values()):
            return UNTIL_SETTLED
        self._admitted = (dv, tr, payload)
        return None

    def start(self, name: str, attempt: int) -> Optional[Attempt]:
        admitted, self._admitted = self._admitted, None
        try:
            if isinstance(admitted, ExecutionError):
                raise admitted
            self._live[name] = self._start(name, *admitted)
        except ExecutionError as exc:
            return self._failed(exc)
        return None

    def _start(self, name, dv, tr, payload) -> Any:
        """Hand one step to the pool; returns what settling it needs."""
        self._pool.submit(name, self._job(payload))
        self._busy_outputs.update(payload.output_paths.values())
        return dv, tr, payload

    def run(self, driver: Driver) -> None:
        driver.dispatch()
        while self._live:
            for name, attempt in self._settled():
                driver.settle(name, attempt)
            driver.dispatch()

    def _settled(self) -> Iterator[tuple[str, Attempt]]:
        """Block for a batch of finished steps; commit each, in
        topological rank.  A worker that raised or died fails its step
        without provenance.  A worker process's telemetry is merged
        even when there is nothing to commit: failed steps are the
        ones whose trace matters."""
        batch = sorted(self._pool.wait(), key=lambda r: self.rank[r[0]])
        for name, result in batch:
            dv, tr, payload = self._live.pop(name)
            self._busy_outputs.difference_update(payload.output_paths.values())
            try:
                if isinstance(result, BaseException):
                    self._executor._count(None)
                    raise ExecutionError(
                        f"derivation {dv.name!r}: worker failed "
                        f"({type(result).__name__}: {result})"
                    ) from result
                invocation = self._executor._finish(dv, tr, payload, result)
                attempt = self._succeeded(invocation)
            except ExecutionError as exc:
                attempt = self._failed(exc)
            finally:
                self._executor._merge_worker_telemetry(result, self._parent)
            yield name, attempt
            del attempt  # a failed one's traceback holds this frame

    def _succeeded(self, invocation: Invocation) -> Attempt:
        start, site = invocation.start_time, self._executor.site_name
        end = start + invocation.usage.wall_seconds
        return Attempt(True, "success", start, end, site, value=invocation)

    def _failed(self, error: ExecutionError) -> Attempt:
        now, site = time.time(), self._executor.site_name
        return Attempt(False, "failure", now, now, site, error=error)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()


class _InlineLane(_Lane):
    """``workers=1`` on the thread backend: the calling thread runs and
    commits each step as it starts.  A failed run comes back from
    ``start``, so the driver settles it before anything else is taken —
    under fail-fast nothing behind it runs.  Each round is one level of
    the plan, so a clean run goes in the plan's topological order."""

    def _start(self, name, dv, tr, payload) -> Attempt:
        outcome = self._executor._execute(payload, self._parent)
        return self._succeeded(self._executor._finish(dv, tr, payload, outcome))

    def _settled(self) -> Iterator[tuple[str, Attempt]]:
        batch, self._live = self._live, {}
        return iter(sorted(batch.items(), key=lambda r: self.rank[r[0]]))
