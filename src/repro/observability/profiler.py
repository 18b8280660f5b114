"""An always-on sampling profiler with lifecycle-phase attribution.

The ROADMAP's "raw speed" items keep asking the same question: *where
do the seconds go* in a 10⁶-node plan or a wide materialization?
Deterministic tracing (``sys.setprofile``) costs 2-4× on the planner's
hot loops — unusable as an always-on tool.  This module samples
instead: a daemon thread wakes every ``interval`` seconds, grabs every
thread's current stack via :func:`sys._current_frames`, and attributes
each sample to the current **lifecycle phase** (generate / plan /
schedule / execute / analyze — marked by the code under test with
``obs.phase("plan")``).  Overhead is the cost of walking live stacks a
couple hundred times a second: a few percent, guarded by the
observability overhead benchmark.

What comes out:

- per-phase wall seconds and sample counts (where did the run spend
  its time, by stage of the virtual-data lifecycle);
- aggregated stacks per phase, exportable as collapsed-stack lines
  (``a;b;c 42`` — the flamegraph.pl / speedscope interchange format);
- per-phase peak-memory watermarks via :mod:`tracemalloc` when
  ``memory=True`` (off by default: tracemalloc itself costs ~2×, so
  the always-on path never pays it);
- a dict for the flight recorder's ``profile`` line, so profiles ride
  in run records, diff across runs, and gate ``repro regress``.

The profiler is process-local by design: worker processes ship spans
home through the telemetry relay (:mod:`repro.executor.process`), and
worker-side *time* is already visible there; sampling inside workers
would multiply overhead for stacks the relay already explains.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

#: Default sampling period, seconds.  200 Hz is fine-grained enough to
#: attribute a 50 ms planner pass and coarse enough to stay under the
#: 5% overhead budget.
DEFAULT_INTERVAL = 0.005

#: Frames kept per sampled stack, innermost last.  Deep planner
#: recursions get truncated at the *outer* end — leaves are what hot
#: frame reports rank.
MAX_FRAMES = 30

#: Stacks kept per phase in ``to_dict`` exports, heaviest first.
TOP_STACKS = 200

#: Samples attributed to no marked phase land here.
IDLE_PHASE = "(unattributed)"


class PhaseStat:
    """Aggregated samples and wall time for one lifecycle phase."""

    __slots__ = ("name", "samples", "seconds", "peak_bytes", "intervals")

    def __init__(self, name: str):
        self.name = name
        self.samples = 0
        self.seconds = 0.0
        self.peak_bytes = 0
        #: (wall_start, wall_end) pairs in ``time.time()`` terms, for
        #: the Perfetto phase track.
        self.intervals: list[tuple[float, float]] = []


class SamplingProfiler:
    """Periodic whole-process stack sampler with phase attribution.

    Start/stop brackets a run::

        profiler = SamplingProfiler()
        obs.attach_profiler(profiler)
        profiler.start()
        try:
            ...  # code marked with obs.phase("plan") etc.
        finally:
            profiler.stop()
        report = profiler.to_dict()

    Phases nest (``plan`` inside ``materialize``): samples go to the
    *innermost* open phase, matching how span trees attribute time.
    The phase stack is process-global (one profiler per run), guarded
    by a lock so executor pool threads can mark phases too.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        max_frames: int = MAX_FRAMES,
        memory: bool = False,
    ):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.interval = interval
        self.max_frames = max_frames
        self.memory = memory
        self._lock = threading.Lock()
        self._phase_stack: list[str] = []
        self._phases: dict[str, PhaseStat] = {}
        #: (phase, stack-tuple) -> sample count.  Stacks are tuples of
        #: ``module:function:line`` strings, outermost first.
        self._stacks: dict[tuple[str, tuple[str, ...]], int] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_wall: Optional[float] = None
        self._stopped_wall: Optional[float] = None
        self._samples = 0
        self._tracemalloc_started_here = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracemalloc_started_here = True
        self._started_wall = time.time()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        self._stopped_wall = time.time()
        if self._tracemalloc_started_here:
            import tracemalloc

            tracemalloc.stop()
            self._tracemalloc_started_here = False

    @property
    def running(self) -> bool:
        return self._thread is not None

    # -- phase marking ------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute enclosed samples (and wall time) to ``name``."""
        wall0 = time.time()
        clock0 = time.perf_counter()
        if self.memory:
            self._reset_memory_peak()
        with self._lock:
            self._phase_stack.append(name)
            stat = self._phases.setdefault(name, PhaseStat(name))
        try:
            yield
        finally:
            elapsed = time.perf_counter() - clock0
            peak = self._memory_peak() if self.memory else 0
            with self._lock:
                # Close the innermost matching frame; phases opened on
                # other threads may have interleaved above it.
                for i in range(len(self._phase_stack) - 1, -1, -1):
                    if self._phase_stack[i] == name:
                        del self._phase_stack[i]
                        break
                stat.seconds += elapsed
                stat.intervals.append((wall0, time.time()))
                if peak > stat.peak_bytes:
                    stat.peak_bytes = peak

    def current_phase(self) -> str:
        with self._lock:
            if self._phase_stack:
                return self._phase_stack[-1]
            return IDLE_PHASE

    # -- sampling -----------------------------------------------------------

    def _sample_loop(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._take_sample(own_id)

    def _take_sample(self, own_id: int) -> None:
        frames = sys._current_frames()
        with self._lock:
            phase = (
                self._phase_stack[-1]
                if self._phase_stack
                else IDLE_PHASE
            )
            stat = self._phases.setdefault(phase, PhaseStat(phase))
            self._samples += 1
            for thread_id, frame in frames.items():
                if thread_id == own_id:
                    continue
                stack = self._walk(frame)
                if not stack:
                    continue
                stat.samples += 1
                key = (phase, stack)
                self._stacks[key] = self._stacks.get(key, 0) + 1

    def _walk(self, frame: Any) -> tuple[str, ...]:
        """Render one frame chain as ``module:function:line`` strings,
        outermost first, capped at :attr:`max_frames` innermost."""
        out: list[str] = []
        while frame is not None and len(out) < self.max_frames:
            code = frame.f_code
            module = code.co_filename.rsplit("/", 1)[-1]
            out.append(f"{module}:{code.co_name}:{frame.f_lineno}")
            frame = frame.f_back
        out.reverse()
        return tuple(out)

    # -- memory -------------------------------------------------------------

    def _reset_memory_peak(self) -> None:
        import tracemalloc

        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()

    def _memory_peak(self) -> int:
        import tracemalloc

        if tracemalloc.is_tracing():
            return tracemalloc.get_traced_memory()[1]
        return 0

    # -- exports ------------------------------------------------------------

    def to_dict(self, top: int = TOP_STACKS) -> dict[str, Any]:
        """The recorder-schema ``profile`` payload.

        Stacks are capped at the ``top`` heaviest across all phases so
        a long run's record stays bounded; ``dropped_stacks`` counts
        what the cap removed (no silent truncation).
        """
        with self._lock:
            phases = {
                name: {
                    "samples": stat.samples,
                    "seconds": round(stat.seconds, 6),
                    "peak_bytes": stat.peak_bytes,
                    "intervals": [
                        [round(a, 6), round(b, 6)]
                        for a, b in stat.intervals
                    ],
                }
                for name, stat in sorted(self._phases.items())
            }
            ranked = sorted(
                self._stacks.items(), key=lambda kv: -kv[1]
            )
        stacks = [
            {"phase": phase, "frames": list(frames), "count": count}
            for (phase, frames), count in ranked[:top]
        ]
        return {
            "interval": self.interval,
            "memory": self.memory,
            "started": self._started_wall,
            "stopped": self._stopped_wall,
            "samples": self._samples,
            "phases": phases,
            "stacks": stacks,
            "dropped_stacks": max(0, len(ranked) - top),
        }


def collapsed_stacks(profile: dict[str, Any]) -> list[str]:
    """Collapsed-stack lines from a profile dict (live or loaded back
    from a run record) — feed to flamegraph.pl or speedscope."""
    lines = []
    for entry in profile.get("stacks", ()):
        frames = [entry.get("phase", IDLE_PHASE), *(entry.get("frames") or ())]
        lines.append(";".join(frames) + f" {int(entry.get('count', 0))}")
    return sorted(lines)


def hot_frames(
    profile: dict[str, Any], phase: Optional[str] = None, top: int = 10
) -> list[tuple[str, int]]:
    """Rank leaf frames by inclusive sample count from a profile dict.

    Works on live :meth:`SamplingProfiler.to_dict` output and on
    profiles loaded back from run records (where stacks are plain
    lists).  ``phase=None`` ranks across all phases.
    """
    weights: dict[str, int] = {}
    for entry in profile.get("stacks", ()):
        if phase is not None and entry.get("phase") != phase:
            continue
        frames = entry.get("frames") or ()
        if not frames:
            continue
        leaf = frames[-1]
        weights[leaf] = weights.get(leaf, 0) + int(entry.get("count", 0))
    ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]


def render_profile(profile: dict[str, Any], top: int = 10) -> str:
    """Human-readable per-phase report for ``repro profile``."""
    lines: list[str] = []
    interval = profile.get("interval", DEFAULT_INTERVAL)
    lines.append(
        f"profile: {profile.get('samples', 0)} samples at "
        f"{interval * 1e3:.1f}ms"
        + (" (memory on)" if profile.get("memory") else "")
    )
    phases = profile.get("phases", {})
    total = sum(p.get("seconds", 0.0) for p in phases.values())
    for name, stat in sorted(
        phases.items(), key=lambda kv: -kv[1].get("seconds", 0.0)
    ):
        seconds = stat.get("seconds", 0.0)
        share = (100.0 * seconds / total) if total else 0.0
        peak = stat.get("peak_bytes", 0)
        peak_note = (
            f"  peak {peak / 1e6:.1f} MB" if peak else ""
        )
        lines.append(
            f"  {name:<16} {seconds:8.3f}s {share:5.1f}%  "
            f"{stat.get('samples', 0):6d} samples{peak_note}"
        )
        for frame, count in hot_frames(profile, phase=name, top=top):
            lines.append(f"    {count:6d}  {frame}")
    dropped = profile.get("dropped_stacks", 0)
    if dropped:
        lines.append(f"  ({dropped} cold stacks not recorded)")
    return "\n".join(lines)
