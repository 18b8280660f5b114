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
import subprocess
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional

from repro.catalog.base import VirtualDataCatalog
from repro.core.dataset import Dataset
from repro.core.derivation import Derivation
from repro.core.descriptors import FileDescriptor
from repro.core.invocation import ExecutionContext, Invocation, ResourceUsage
from repro.core.recipe import stamp_recipe
from repro.core.replica import Replica
from repro.core.transformation import SimpleTransformation
from repro.durability.checksum import file_digest, verify_file
from repro.durability.crashpoints import crashpoint
from repro.durability.recovery import sandbox_filename
from repro.errors import ExecutionError, MaterializationError
from repro.observability.instrument import NULL, Instrumentation
from repro.planner.dag import Planner
from repro.planner.request import MaterializationRequest
from repro.resilience.policies import (
    FAIL_FAST,
    FAILURE_POLICIES,
    RUN_WHAT_YOU_CAN,
)


class RunContext:
    """Everything a registered Python transformation body receives."""

    def __init__(
        self,
        workdir: Path,
        argv: tuple[str, ...],
        environment: dict[str, str],
        input_paths: dict[str, Path],
        output_paths: dict[str, Path],
        parameters: dict[str, str],
        streams: dict[str, Path],
    ):
        self.workdir = workdir
        self.argv = argv
        self.environment = environment
        self.input_paths = input_paths
        self.output_paths = output_paths
        self.parameters = parameters
        self.streams = streams

    def read_input(self, formal: str) -> bytes:
        """Read the full contents of the input bound to ``formal``."""
        return self.input_paths[formal].read_bytes()

    def write_output(self, formal: str, data: bytes | str) -> None:
        """Write the output bound to ``formal``."""
        path = self.output_paths[formal]
        if isinstance(data, str):
            data = data.encode()
        path.write_bytes(data)


#: A registered transformation body: receives the context, returns
#: nothing; raises to signal failure.
TransformationBody = Callable[[RunContext], None]


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
        self.workdir = Path(workdir)
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
        # Per-dataset sandbox locks for the parallel engine.
        self._dataset_locks: dict[str, threading.Lock] = {}
        self._dataset_locks_guard = threading.Lock()
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
        if not path.exists():
            return False
        matching = [
            replica
            for replica in self.catalog.replicas_of(dataset_name)
            if isinstance(replica.descriptor, FileDescriptor)
            and replica.descriptor.path == str(path)
        ]
        if not matching:
            return True
        stat = path.stat()
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
        from repro.provenance.graph import DerivationGraph
        from repro.provenance.invalidation import invalidated_by

        graph = DerivationGraph.from_catalog(self.catalog)
        tainted = invalidated_by(
            graph, bad_datasets=[dataset_name]
        ).tainted_datasets
        with self.catalog.transaction(label=f"quarantine:{dataset_name}"):
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
                    self._move_to_quarantine(target)
                self._verified.pop(str(target), None)
                if self.catalog.has_dataset(name):
                    ds = self.catalog.get_dataset(name)
                    if not ds.is_virtual:
                        self.catalog.add_dataset(
                            Dataset(
                                name=ds.name,
                                dataset_type=ds.dataset_type,
                                attributes=ds.attributes.copy(),
                                producer=ds.producer,
                            ),
                            replace=True,
                        )
        if self.obs.recorder is not None:
            self.obs.recorder.event(
                "replica.quarantined",
                dataset=dataset_name,
                replica=replica.replica_id,
                tainted=sorted(tainted),
            )

    def _move_to_quarantine(self, path: Path) -> Path:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        ordinal = 0
        while target.exists():
            ordinal += 1
            target = self.quarantine_dir / f"{path.name}.{ordinal}"
        os.replace(path, target)
        return target

    # -- execution ---------------------------------------------------------------

    def execute(self, dv: Derivation | str) -> Invocation:
        """Run one derivation now; returns the recorded invocation.

        Inputs must already be materialized in the sandbox.  On
        success, output datasets get replicas (with sha256 digests) and
        file descriptors registered in the catalog.
        """
        name = dv if isinstance(dv, str) else dv.name
        with self.obs.span("executor.execute", derivation=name):
            try:
                invocation = self._execute(dv)
            except ExecutionError:
                if self.obs.enabled:
                    self.obs.count(
                        "executor.invocations",
                        status="failure",
                        help="local executions by terminal status",
                    )
                raise
            if self.obs.enabled:
                self.obs.count(
                    "executor.invocations",
                    status=invocation.status,
                    help="local executions by terminal status",
                )
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
            return invocation

    def _execute(self, dv: Derivation | str) -> Invocation:
        if isinstance(dv, str):
            dv = self.catalog.get_derivation(dv)
        tr = self.catalog.get_transformation(dv.transformation.name)
        if not isinstance(tr, SimpleTransformation):
            raise ExecutionError(
                f"local executor runs simple transformations only; "
                f"{tr.name!r} is compound (plan it first)"
            )
        values, input_paths, output_paths, parameters = self._bind(dv, tr)
        for formal, path in input_paths.items():
            if not path.exists():
                raise ExecutionError(
                    f"derivation {dv.name!r}: input {formal!r} "
                    f"({path.name}) is not materialized"
                )
        argv = tr.command_line(values)
        environment = {**dict(dv.environment), **tr.rendered_environment(values)}
        streams = {}
        for stream_name, rendered in tr.stream_redirects(values).items():
            path = Path(rendered)
            if not path.is_absolute():
                # A bare LFN (e.g. a string default): sandbox it.
                path = self.workdir / rendered.replace("/", "_")
            streams[stream_name] = path
        context = RunContext(
            workdir=self.workdir,
            argv=argv,
            environment=environment,
            input_paths=input_paths,
            output_paths=output_paths,
            parameters=parameters,
            streams=streams,
        )
        started = time.time()
        clock0 = time.perf_counter()
        error: Optional[str] = None
        exit_code = 0
        try:
            self._run_body(tr, context)
        except ExecutionError:
            raise
        except Exception as exc:  # body failures become failed invocations
            error = f"{type(exc).__name__}: {exc}"
            exit_code = 1
        elapsed = time.perf_counter() - clock0
        bytes_read = sum(
            p.stat().st_size for p in input_paths.values() if p.exists()
        )
        bytes_written = sum(
            p.stat().st_size for p in output_paths.values() if p.exists()
        )
        invocation = Invocation(
            derivation_name=dv.name,
            status="success" if error is None else "failure",
            start_time=started,
            context=ExecutionContext.make(
                site=self.site_name,
                host=platform.node() or "localhost",
                os=platform.system().lower() or "linux",
                processor=platform.machine() or "x86_64",
                environment=environment,
            ),
            usage=ResourceUsage(
                cpu_seconds=elapsed,
                wall_seconds=elapsed,
                bytes_read=bytes_read,
                bytes_written=bytes_written,
            ),
            exit_code=exit_code,
            error=error,
        )
        stamp_recipe(invocation, dv, tr)
        # One atomic provenance commit: output replicas, materialized
        # dataset records and the invocation land together or not at
        # all.  A kill inside this window leaves either a rollback-able
        # journal/backend transaction or nothing — never a replica
        # without its invocation.
        with self.catalog.transaction(label=f"invocation:{dv.name}"):
            if error is None:
                self._record_outputs(dv, invocation, output_paths)
            self.catalog.add_invocation(invocation)
        crashpoint("executor.post-commit")
        if self.obs.recorder is not None:
            self.obs.recorder.invocation(invocation)
        if error is not None:
            raise ExecutionError(
                f"derivation {dv.name!r} failed: {error}"
            )
        return invocation

    def _bind(self, dv: Derivation, tr: SimpleTransformation):
        values: dict[str, str] = {}
        input_paths: dict[str, Path] = {}
        output_paths: dict[str, Path] = {}
        parameters: dict[str, str] = {}
        for formal in tr.signature.formals:
            actual = dv.actuals.get(formal.name, formal.default)
            if actual is None:
                raise ExecutionError(
                    f"derivation {dv.name!r}: formal {formal.name!r} unbound"
                )
            if isinstance(actual, str):
                values[formal.name] = actual
                if formal.is_string:
                    parameters[formal.name] = actual
                else:
                    # Dataset formal bound via default LFN string.
                    path = self.path_for(actual)
                    if formal.is_input:
                        input_paths[formal.name] = path
                    if formal.is_output:
                        output_paths[formal.name] = path
                    values[formal.name] = str(path)
            else:
                path = self.path_for(actual.dataset)
                values[formal.name] = str(path)
                if actual.is_input:
                    input_paths[formal.name] = path
                if actual.is_output:
                    output_paths[formal.name] = path
        return values, input_paths, output_paths, parameters

    def _run_body(self, tr: SimpleTransformation, context: RunContext) -> None:
        body = self._bodies.get(tr.executable)
        if body is not None:
            body(context)
            return
        if not os.path.exists(tr.executable):
            raise ExecutionError(
                f"executable {tr.executable!r} does not exist and no "
                f"Python body is registered for it"
            )
        stdin_path = context.streams.get("stdin")
        stdout_path = context.streams.get("stdout")
        stderr_path = context.streams.get("stderr")
        # VDL argument statements are text fragments of the command
        # line; a real invocation splits them into words the way a
        # shell would (Chimera's POSIX execution model).
        import shlex

        words = shlex.split(" ".join(context.argv))
        with _maybe_open(stdin_path, "rb") as stdin, _maybe_open(
            stdout_path, "wb"
        ) as stdout, _maybe_open(stderr_path, "wb") as stderr:
            completed = subprocess.run(
                [tr.executable, *words],
                stdin=stdin,
                stdout=stdout,
                stderr=stderr,
                env={**os.environ, **context.environment},
                cwd=context.workdir,
                check=False,
            )
        if completed.returncode != 0:
            raise RuntimeError(
                f"{tr.executable} exited with {completed.returncode}"
            )

    def _record_outputs(
        self,
        dv: Derivation,
        invocation: Invocation,
        output_paths: dict[str, Path],
    ) -> None:
        for formal, path in output_paths.items():
            actual = dv.actuals.get(formal)
            dataset_name = (
                actual.dataset if hasattr(actual, "dataset") else path.name
            )
            if not path.exists():
                raise ExecutionError(
                    f"derivation {dv.name!r} succeeded but output "
                    f"{dataset_name!r} was not written"
                )
            size = path.stat().st_size
            digest = file_digest(path)
            crashpoint("executor.stage-out")
            replica = Replica(
                dataset_name=dataset_name,
                location=self.site_name,
                descriptor=FileDescriptor(path=str(path), size=size),
                size=size,
                digest=digest,
            )
            self.catalog.add_replica(replica)
            invocation.replica_bindings[formal] = replica.replica_id
            if self.catalog.has_dataset(dataset_name):
                ds = self.catalog.get_dataset(dataset_name)
            else:
                ds = Dataset(name=dataset_name)
            self.catalog.add_dataset(
                ds.materialized(FileDescriptor(path=str(path), size=size)),
                replace=True,
            )
            stat = path.stat()
            self._verified[str(path)] = (stat.st_size, stat.st_mtime_ns)

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
        dependencies have completed").  ``backend`` selects the pool:
        ``"thread"`` (default) shares the interpreter and suits
        I/O-bound or subprocess-heavy steps; ``"process"`` runs
        registered Python bodies in worker processes so CPU-bound
        steps scale past the GIL (bodies must then be module-level
        functions — see :mod:`repro.executor.process`).
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
                if (
                    backend == "thread"
                    and workers == 1
                    and policy == FAIL_FAST
                ):
                    # Today's sequential path, unchanged.
                    invocations = []
                    for name in plan.topological_order():
                        if self.obs.progress is not None:
                            self.obs.progress.step_started(name)
                        try:
                            invocation = self.execute(
                                plan.steps[name].derivation
                            )
                        except ExecutionError:
                            self._note_step(name, None, "failure")
                            raise
                        invocations.append(invocation)
                        self._note_step(name, invocation, "success")
                    return invocations
                return self._materialize_pool(
                    plan, workers, policy, backend, mspan
                )

    def _materialize_pool(
        self, plan, workers: int, policy: str, backend: str, parent=None
    ) -> list[Invocation]:
        """Release-driven pool execution of a plan, on either backend.

        The main thread owns all scheduling state.  It dispatches the
        initial ready set once, then only what each completion releases
        (``Frontier.complete`` returns exactly that), in name order;
        finished futures announce themselves on a queue, and a batch of
        them is handled in topological rank — so the cost per step is
        independent of how wide the plan is.  What running a step means
        is the lane's business: :class:`_ThreadLane` runs
        :meth:`execute` on pool threads, :class:`_ProcessLane` ships
        payloads to worker processes and commits through a single
        writer.  A lane may also hold a step back (``submit`` returns
        ``None``); held steps are offered again after every batch.
        """
        order_index = {
            name: i for i, name in enumerate(plan.topological_order())
        }
        frontier = plan.frontier()
        completed: dict[str, Invocation] = {}
        failures: dict[str, ExecutionError] = {}
        skipped: set[str] = set()
        futures: dict = {}  # future -> step name
        finished: queue.SimpleQueue = queue.SimpleQueue()

        def fail(name: str, exc: ExecutionError) -> None:
            failures[name] = exc
            skipped.update(self._downstream_of(plan, name))
            self._note_step(name, None, "failure")

        lane = (_ProcessLane if backend == "process" else _ThreadLane)(
            self, workers, parent
        )
        try:
            offered = frontier.ready()
            while True:
                if lane.failure is not None:
                    raise lane.failure
                held: list[str] = []
                if not (policy == FAIL_FAST and failures):
                    for name in offered:
                        try:
                            future = lane.submit(plan.steps[name])
                        except ExecutionError as exc:
                            fail(name, exc)
                            continue
                        if future is None:
                            held.append(name)
                            continue
                        futures[future] = name
                        future.add_done_callback(finished.put)
                        if self.obs.progress is not None:
                            self.obs.progress.step_started(name)
                    self._obs_in_flight(len(futures))
                self._sample_frontier(
                    frontier, futures, completed, len(plan.steps)
                )
                if not futures:
                    break
                done = [finished.get()]
                try:
                    while True:
                        done.append(finished.get_nowait())
                except queue.Empty:
                    pass
                offered = held
                for future in sorted(
                    done, key=lambda f: order_index[futures[f]]
                ):
                    name = futures.pop(future)
                    try:
                        completed[name] = lane.settle(name, future)
                    except ExecutionError as exc:
                        # Steps downstream of a failure are never
                        # released; everything else keeps flowing.
                        fail(name, exc)
                    else:
                        offered.extend(frontier.complete(name))
                        self._note_step(name, completed[name], "success")
                offered.sort()
                self._obs_in_flight(len(futures))
        finally:
            lane.close()
            self._obs_in_flight(0)
        if lane.failure is not None:
            raise lane.failure
        for name in sorted(skipped, key=order_index.__getitem__):
            if self.obs.progress is not None:
                self.obs.progress.step_finished(name, "skipped")
            if self.obs.recorder is not None:
                self.obs.recorder.event(
                    "step.skipped", step=name, reason="upstream failure"
                )
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
                f"{len(skipped)} skipped downstream",
                invocations=invocations,
                failed=failures,
                skipped=skipped,
            ) from failures[first]
        return invocations

    # -- process-pool backend -------------------------------------------------

    def _build_payload(self, step):
        """Build the picklable payload for one plan step (parent side).

        Performs the same pre-run checks as the in-process path —
        compound transformations are refused and inputs must already be
        materialized — so scheduling semantics match the thread
        backend exactly.
        """
        from repro.executor.process import InvocationPayload

        dv = step.derivation
        tr = self.catalog.get_transformation(dv.transformation.name)
        if not isinstance(tr, SimpleTransformation):
            raise ExecutionError(
                f"local executor runs simple transformations only; "
                f"{tr.name!r} is compound (plan it first)"
            )
        values, input_paths, output_paths, parameters = self._bind(dv, tr)
        for formal, path in input_paths.items():
            if not path.exists():
                raise ExecutionError(
                    f"derivation {dv.name!r}: input {formal!r} "
                    f"({path.name}) is not materialized"
                )
        argv = tr.command_line(values)
        environment = {
            **dict(dv.environment),
            **tr.rendered_environment(values),
        }
        streams = {}
        for stream_name, rendered in tr.stream_redirects(values).items():
            path = Path(rendered)
            if not path.is_absolute():
                path = self.workdir / rendered.replace("/", "_")
            streams[stream_name] = str(path)
        output_datasets = {}
        for formal, path in output_paths.items():
            actual = dv.actuals.get(formal)
            output_datasets[formal] = (
                actual.dataset if hasattr(actual, "dataset") else path.name
            )
        payload = InvocationPayload(
            step_name=step.name,
            derivation_name=dv.name,
            executable=tr.executable,
            argv=tuple(argv),
            environment=environment,
            workdir=str(self.workdir),
            input_paths={k: str(v) for k, v in input_paths.items()},
            output_paths={k: str(v) for k, v in output_paths.items()},
            output_datasets=output_datasets,
            parameters=dict(parameters),
            streams=streams,
            body=self._bodies.get(tr.executable),
        )
        return payload, dv, tr

    def _outcome_invocation(self, dv, tr, payload, outcome) -> Invocation:
        """Materialize a worker outcome as an Invocation record.

        Allocation happens parent-side (ids, recipe stamp) so workers
        stay free of catalog concerns; field population mirrors
        ``_execute``'s in-process construction.
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

    def _commit_outcome(self, dv, tr, invocation, outcome) -> None:
        """Write one worker outcome's provenance (collector thread only).

        The single-writer twin of ``_execute``'s commit block: output
        replicas (digests already computed in the worker), materialized
        dataset records and the invocation land in one catalog
        transaction, or not at all.
        """
        with self.catalog.transaction(label=f"invocation:{dv.name}"):
            if invocation.status == "success":
                for formal, stat in sorted(outcome.outputs.items()):
                    actual = dv.actuals.get(formal)
                    dataset_name = (
                        actual.dataset
                        if hasattr(actual, "dataset")
                        else Path(stat.path).name
                    )
                    crashpoint("executor.stage-out")
                    replica = Replica(
                        dataset_name=dataset_name,
                        location=self.site_name,
                        descriptor=FileDescriptor(
                            path=stat.path, size=stat.size
                        ),
                        size=stat.size,
                        digest=stat.digest,
                    )
                    self.catalog.add_replica(replica)
                    invocation.replica_bindings[formal] = replica.replica_id
                    if self.catalog.has_dataset(dataset_name):
                        ds = self.catalog.get_dataset(dataset_name)
                    else:
                        ds = Dataset(name=dataset_name)
                    self.catalog.add_dataset(
                        ds.materialized(
                            FileDescriptor(path=stat.path, size=stat.size)
                        ),
                        replace=True,
                    )
                    self._verified[stat.path] = (stat.size, stat.mtime_ns)
            self.catalog.add_invocation(invocation)
        crashpoint("executor.post-commit")
        if self.obs.recorder is not None:
            self.obs.recorder.invocation(invocation)

    def _merge_worker_telemetry(self, outcome, parent=None) -> None:
        """Graft one worker's shipped telemetry into the parent's obs.

        Called from the collector thread, so all merges are serialized
        and land in dispatch-completion order.  Clock-skew alignment:
        worker span times are offsets from the worker's
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

    def _execute_step_locked(self, step, parent=None) -> Invocation:
        """Run one plan step holding its output-dataset locks.

        Producer→consumer ordering is already enforced by the frontier,
        so inputs are stable once a step dispatches; the only sandbox
        race left is two steps writing the same file (e.g. LFNs that
        collide after path sanitization).  Locks are taken in sorted
        order so overlapping lock sets cannot deadlock.

        ``parent`` is the dispatching thread's ``executor.materialize``
        span: pool threads start with an empty context-local span
        stack, so the parent is adopted explicitly here to keep every
        ``executor.execute`` span nested under the materialize span
        rather than becoming a root.
        """
        names = sorted(set(step.outputs))
        locks = []
        with self._dataset_locks_guard:
            for dataset in names:
                locks.append(
                    self._dataset_locks.setdefault(dataset, threading.Lock())
                )
        for lock in locks:
            lock.acquire()
        try:
            with self.obs.adopt(parent):
                return self.execute(step.derivation)
        finally:
            for lock in reversed(locks):
                lock.release()

    def _note_step(
        self, name: str, invocation: Optional[Invocation], status: str
    ) -> None:
        """Publish one finished step to the recorder and progress sink."""
        if self.obs.recorder is not None:
            if invocation is not None:
                start = invocation.start_time
                end = start + invocation.usage.wall_seconds
            else:
                start = end = time.time()
            self.obs.recorder.step(
                name,
                status=status,
                start=start,
                end=end,
                clock="wall",
                site=self.site_name,
            )
        if self.obs.progress is not None:
            self.obs.progress.step_finished(
                name, "ok" if status == "success" else "failed"
            )

    def _sample_frontier(
        self, frontier, futures, completed, total: int
    ) -> None:
        if self.obs.recorder is not None:
            self.obs.recorder.sample(
                ready=frontier.ready_count(),
                in_flight=len(futures),
                completed=len(completed),
                total=total,
            )

    def _obs_in_flight(self, count: int) -> None:
        if self.obs.enabled:
            self.obs.gauge(
                "executor.pool.in_flight",
                count,
                help="plan steps currently running in the local pool",
            )

    @staticmethod
    def _downstream_of(plan, name: str) -> set[str]:
        """Transitive dependents of ``name`` in the plan DAG.

        Uses the plan's memoized frontier shape instead of re-deriving
        the dependents map — a failure storm on a 10^5-step plan used
        to pay O(edges) per failed step just to find what to skip.
        """
        dependents = plan.frontier_shape()[1]
        out: set[str] = set()
        stack = [name]
        while stack:
            for child in dependents.get(stack.pop(), ()):
                if child not in out:
                    out.add(child)
                    stack.append(child)
        return out


class _ThreadLane:
    """Thread backend of the pool loop: steps run :meth:`execute`.

    Worker threads take per-output dataset locks, so two steps never
    write the same sandbox file concurrently, and the catalog
    serializes its own mutations.
    """

    #: Nothing commits outside the steps themselves.
    failure = None

    def __init__(self, executor: "LocalExecutor", workers: int, parent=None):
        self._executor = executor
        self._parent = parent
        self._pool = ThreadPoolExecutor(max_workers=workers)

    def submit(self, step):
        return self._pool.submit(
            self._executor._execute_step_locked, step, self._parent
        )

    def settle(self, name: str, future) -> Invocation:
        return future.result()

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class _ProcessLane:
    """Process backend of the pool loop.

    Division of labor (see :mod:`repro.executor.process`):

    - The main thread builds a picklable
      :class:`~repro.executor.process.InvocationPayload` per dispatched
      step (pickle-preflighted so failures name the offending field),
      submits it, and feeds worker outcomes to the collector.
    - Worker processes run transformation bodies and hash outputs;
      they never touch the catalog, the executor, or any lock.
    - A single-writer collector thread performs *all* provenance and
      metrics writeback — replica and invocation records are allocated
      parent-side and committed one ``catalog.transaction`` per step,
      in dispatch-completion order, so an upstream step's provenance
      always lands before anything downstream of it and catalog locks
      never cross a process boundary.
    """

    def __init__(self, executor: "LocalExecutor", workers: int, parent=None):
        self._executor = executor
        self._collector = _ProvenanceCollector(executor, parent=parent)
        self._collector.start()
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self._payloads: dict[str, tuple] = {}  # name -> (payload, dv, tr)
        self._busy_outputs: set[str] = set()  # sandbox paths being written

    @property
    def failure(self) -> Optional[BaseException]:
        """First exception raised while committing, if any."""
        return self._collector.failure

    def submit(self, step):
        from repro.executor.process import preflight_payload, run_invocation

        executor = self._executor
        try:
            payload, dv, tr = executor._build_payload(step)
            # Two live steps must never write the same sandbox file
            # (LFNs can collide after path sanitization); hold such a
            # step back until the writer finishes.
            outs = set(payload.output_paths.values())
            if outs & self._busy_outputs:
                return None
            preflight_payload(payload)
        except ExecutionError:
            if executor.obs.enabled:
                executor.obs.count(
                    "executor.invocations",
                    status="failure",
                    help="local executions by terminal status",
                )
            raise
        self._payloads[step.name] = (payload, dv, tr)
        self._busy_outputs.update(outs)
        return self._pool.submit(run_invocation, payload)

    def settle(self, name: str, future) -> Invocation:
        payload, dv, tr = self._payloads.pop(name)
        self._busy_outputs.difference_update(payload.output_paths.values())
        try:
            outcome = future.result()
        except Exception as exc:
            # A worker died hard (pool broken, unpicklable outcome):
            # fail the step without provenance.
            self._collector.submit(dv, tr, None, None)
            raise ExecutionError(
                f"derivation {dv.name!r}: worker failed "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        if outcome.status != "success" and not outcome.commit:
            # No invocation to commit, but the worker's telemetry
            # (spans, stream tails) still merges — failed steps are
            # exactly the ones whose trace matters.
            self._collector.submit(dv, tr, None, outcome)
            raise ExecutionError(
                outcome.error or f"derivation {dv.name!r} failed"
            )
        invocation = self._executor._outcome_invocation(
            dv, tr, payload, outcome
        )
        self._collector.submit(dv, tr, invocation, outcome)
        if outcome.status != "success":
            raise ExecutionError(
                f"derivation {dv.name!r} failed: {outcome.error}"
            )
        return invocation

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self._collector.close()


class _ProvenanceCollector:
    """The process backend's single catalog writer.

    Worker processes compute; this thread records.  Outcomes are
    committed strictly in submission order (a FIFO queue), and the main
    thread only submits a step's outcome before releasing its
    dependents, so upstream provenance is always durable before
    anything downstream commits — the same invariant the sequential
    path gets for free.  Invocation metrics are also counted here so
    the counters observed after a run match the thread backend's
    exactly.
    """

    def __init__(self, executor: LocalExecutor, parent=None):
        self._executor = executor
        #: The dispatching ``executor.materialize`` span — worker-side
        #: root spans are grafted under it at merge time.
        self._parent = parent
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._run, name="provenance-collector", daemon=True
        )
        #: First exception raised while committing, if any; the main
        #: scheduling loop re-raises it.
        self.failure: Optional[BaseException] = None
        self.committed = 0

    def start(self) -> None:
        self._thread.start()

    def submit(self, dv, tr, invocation, outcome) -> None:
        """Queue one finished step.  ``invocation=None`` records
        nothing and only counts a failure (pre-run refusals)."""
        self._queue.put((dv, tr, invocation, outcome))

    def close(self) -> None:
        """Drain the queue and stop the thread."""
        self._queue.put(None)
        self._thread.join()

    def _run(self) -> None:
        executor = self._executor
        while True:
            item = self._queue.get()
            if item is None:
                return
            if self.failure is not None:
                continue  # drain without committing after a failure
            dv, tr, invocation, outcome = item
            try:
                if invocation is not None:
                    executor._commit_outcome(dv, tr, invocation, outcome)
                    self.committed += 1
                if outcome is not None:
                    executor._merge_worker_telemetry(
                        outcome, self._parent
                    )
                if executor.obs.enabled:
                    status = (
                        invocation.status
                        if invocation is not None
                        and invocation.status == "success"
                        else "failure"
                    )
                    executor.obs.count(
                        "executor.invocations",
                        status=status,
                        help="local executions by terminal status",
                    )
                    if invocation is not None and status == "success":
                        executor.obs.observe(
                            "executor.invocation.seconds",
                            invocation.usage.wall_seconds,
                            help="wall time per local derivation",
                        )
                        executor.obs.count(
                            "executor.bytes_written",
                            invocation.usage.bytes_written,
                            help="output bytes produced locally",
                        )
            except BaseException as exc:
                self.failure = exc


class _maybe_open:
    """Context manager: open a path or yield None."""

    def __init__(self, path: Optional[Path], mode: str):
        self._path = path
        self._mode = mode
        self._handle = None

    def __enter__(self):
        if self._path is None:
            return None
        self._handle = open(self._path, self._mode)
        return self._handle

    def __exit__(self, *exc_info):
        if self._handle is not None:
            self._handle.close()
