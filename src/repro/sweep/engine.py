"""Process-pool sweep engine with memoized artifact results.

Runs a list of :class:`~repro.harness.registry.ArtifactSpec` tasks --
the paper's full artifact cross-product, or any ``--only`` slice of it
-- either inline (``jobs=1``) or fanned out over worker processes,
memoizing each task's payload in a
:class:`~repro.sweep.cache.ResultCache` keyed by
:func:`~repro.sweep.keys.artifact_key`.  A warm cache therefore replays
the whole sweep without running a single Pete/Monte/Billie simulation.

Robustness: every task gets a per-task timeout (pooled runs), a bounded
number of retries, and graceful degradation -- a task that keeps
failing is reported and *skipped*, never fatal to the sweep.  Pooled
tasks run on at most ``jobs`` long-lived worker processes, one task at
a time each, so the model layers' memos are shared between the tasks
of a worker as they are inline.  A task is sent only to an idle worker
and its timeout clock starts at the send (queued tasks are never
falsely timed out); a genuinely hung simulation is killed and its
worker replaced, freeing the slot instead of stalling the sweep.  A
worker whose task failed is retired, and retries run in fresh
processes.  Cache entries and ledger records are
written as each task completes, so an interrupted cold sweep still
warms the cache for its rerun.  Each task emits one ``sweep`` record
(status, attempts, wall-clock, cycles, energy) into the
:mod:`repro.regress` ledger, so ``python -m repro.regress diff`` can
compare serial vs parallel or cold vs warm runs shard-against-shard.
"""

from __future__ import annotations

import functools
import multiprocessing
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait

from typing import TYPE_CHECKING

from repro import obs
from repro.sweep.keys import artifact_key

if TYPE_CHECKING:
    from repro.energy.calibration import Calibration

#: Per-task wall-clock budget in pooled runs, measured from the moment
#: the task is sent to a worker (inline runs are not preemptible and
#: ignore it).
DEFAULT_TIMEOUT_S = 600.0
#: Additional attempts after the first failure.
DEFAULT_RETRIES = 1

#: Grace period between SIGTERM and SIGKILL when reaping a hung worker.
_KILL_GRACE_S = 5.0


def _compute_payload(kind: str, name: str,
                     calibration: "Calibration | None" = None,
                     fast: bool | None = None) -> dict:
    """Default task body (top-level so pool workers can unpickle it).

    ``calibration`` installs the matching
    :class:`~repro.model.system.SystemModel` around the producer, so a
    worker process -- which does not share the parent's session state
    under ``spawn``/``forkserver`` start methods -- prices with the
    same calibration the result will be cached under.  ``fast`` pins
    ``$REPRO_PETE_FAST`` in the worker before the first kernel is
    measured, so pooled tasks run the same interpreter path as the
    parent regardless of start method.
    """
    from repro.harness.registry import get_spec

    if fast is not None:
        import os

        os.environ["REPRO_PETE_FAST"] = "1" if fast else "0"
    spec = get_spec(kind, name)
    if calibration is None:
        return spec.payload()
    from repro.model.system import SystemModel, use_model

    with use_model(SystemModel(calibration)):
        return spec.payload()


#: The fast-path activity counters the engine reports per run.
_FASTPATH_KEYS = ("blocks_discovered", "blocks_compiled",
                  "code_cache_hits", "deopt_runs")


def _fastpath_counters() -> dict[str, int]:
    """Current :data:`repro.pete.fastpath.RUNTIME_STATS`, without
    importing the pete stack into processes that never simulate."""
    mod = sys.modules.get("repro.pete.fastpath")
    if mod is None:
        return {}
    return mod.runtime_stats_snapshot()


def _fastpath_delta(base: dict[str, int]) -> dict[str, int] | None:
    """Counter movement since ``base`` (``None`` if pete never ran)."""
    now = _fastpath_counters()
    if not now and not base:
        return None
    return {k: now.get(k, 0) - base.get(k, 0) for k in _FASTPATH_KEYS}


#: The service-plane counters the engine reports per run.
_SERVE_KEYS = ("requests_served", "requests_shed", "batches_formed",
               "lanes_dispatched")


def _serve_counters() -> dict[str, int]:
    """Current :data:`repro.serve.service.RUNTIME_STATS`, without
    importing the service plane into processes that never serve."""
    mod = sys.modules.get("repro.serve.service")
    if mod is None:
        return {}
    return mod.runtime_stats_snapshot()


def _serve_delta(base: dict[str, int]) -> dict[str, int] | None:
    """Counter movement since ``base`` (``None`` if nothing served)."""
    now = _serve_counters()
    if not now and not base:
        return None
    return {k: now.get(k, 0) - base.get(k, 0) for k in _SERVE_KEYS}


def _pool_worker(conn, compute) -> None:
    """Serve tasks from ``conn`` until the parent sends ``None``.

    Each task message is ``(kind, name, obs_ctx)``; the reply is
    ``(status, value, extras)``.  Extras carry the task's fast-path
    counter delta (measured from the task's start, so neither a forked
    parent's counts nor an earlier task's leak in) and -- when
    ``obs_ctx`` joined the task to the parent's trace -- the drained
    telemetry snapshot, whose spans are parented under the dispatching
    task span.
    """
    parent = multiprocessing.parent_process()
    while True:
        try:
            # a parent killed outright never sends ``None``; its
            # sentinel is then what wakes this worker, so it exits
            if conn not in _connection_wait([conn, parent.sentinel]):
                return
            task = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if task is None:
            return
        kind, name, obs_ctx = task
        if obs_ctx is not None:
            obs.activate_from(obs_ctx)
        base = _fastpath_counters()
        span = obs.span("sweep.worker", kind=kind, task=name).start()
        try:
            message = ("ok", compute(kind, name))
            span.finish("ok")
        except BaseException as exc:
            span.finish("error")
            message = ("error", f"{type(exc).__name__}: {exc}")
        extras = {"fastpath": _fastpath_delta(base),
                  "telemetry": obs.drain()}
        try:
            conn.send((*message, extras))
        except Exception as exc:
            conn.send(("error", f"unsendable result: "
                                f"{type(exc).__name__}: {exc}", None))


def _reap(proc) -> None:
    """Terminate a worker, escalating to SIGKILL if it ignores SIGTERM."""
    proc.terminate()
    proc.join(timeout=_KILL_GRACE_S)
    if proc.is_alive():
        proc.kill()
        proc.join()


@dataclass
class TaskOutcome:
    """What happened to one artifact task."""

    kind: str
    name: str
    status: str                 # "hit" | "computed" | "failed"
    wall_s: float = 0.0
    attempts: int = 0
    error: str | None = None
    payload: dict | None = None
    reaped: int = 0             # attempts killed for exceeding timeout
    fastpath: dict[str, int] | None = None  # worker counter deltas

    @property
    def ok(self) -> bool:
        return self.status in ("hit", "computed")

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    @property
    def artifact(self) -> str:
        return f"{self.kind}_{self.name}"


@dataclass
class SweepResult:
    """Outcomes of one engine run, in task order."""

    outcomes: list[TaskOutcome]
    jobs: int
    #: ResultCache hit/miss movement during this run (0/0 uncached)
    cache_hits: int = 0
    cache_misses: int = 0
    #: fast-path compiler activity across the run -- the inline
    #: process's counter delta plus every pool worker's shipped delta
    fastpath: dict[str, int] = field(default_factory=dict)
    #: service-plane activity during the run (requests served by any
    #: in-process SigningService while the sweep was running)
    serve: dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "hit")

    @property
    def computed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "computed")

    @property
    def failed(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def reaped(self) -> int:
        return sum(o.reaped for o in self.outcomes)

    @property
    def retries(self) -> int:
        return sum(o.retries for o in self.outcomes)

    def summary(self) -> str:
        out = (f"sweep: {len(self.outcomes)} artifacts, "
               f"{self.hits} cached, {self.computed} computed, "
               f"{len(self.failed)} failed, jobs={self.jobs}"
               f"; cache {self.cache_hits} hits / "
               f"{self.cache_misses} misses")
        fp = self.fastpath
        if fp:
            out += (f"; fastpath {fp.get('blocks_compiled', 0)} compiled"
                    f" / {fp.get('code_cache_hits', 0)} code-cache hits")
        sv = self.serve
        if sv and sv.get("requests_served"):
            batches = sv.get("batches_formed", 0)
            occupancy = (sv.get("lanes_dispatched", 0) / batches
                         if batches else 0.0)
            out += (f"; serve {sv['requests_served']} served / "
                    f"{batches} batches "
                    f"(mean occupancy {occupancy:.1f})")
        if self.reaped:
            out += f"; {self.reaped} reaped"
        return out


class SweepEngine:
    """Executes artifact tasks with caching, retry and timeouts.

    ``cache=None`` disables memoization; ``ledger=None`` uses the
    env-gated default (:func:`repro.regress.ledger.default_ledger`), so
    unit tests stay IO-free.  ``calibration`` is folded into the cache
    key *and* threaded into the default task body, which installs it
    around the producer in every worker -- pooled results are always
    priced with the calibration they are cached under.  ``compute`` is
    injectable for tests; an injected compute is responsible for its
    own calibration handling (the engine still keys the cache with
    ``calibration``).
    """

    def __init__(self, jobs: int = 1, cache=None,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 retries: int = DEFAULT_RETRIES,
                 ledger=None, calibration=None, compute=None,
                 fast: bool | None = None,
                 mp_context: str | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        #: multiprocessing start method for pooled runs (``"fork"`` /
        #: ``"spawn"`` / ``None`` = platform default); injectable so
        #: the telemetry propagation tests cover both methods
        self.mp_context = mp_context
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        if ledger is None:
            from repro.regress.ledger import default_ledger

            ledger = default_ledger()
        self.ledger = ledger
        self.calibration = calibration
        self.fast = fast
        if compute is None:
            compute = _compute_payload
            if calibration is not None or fast is not None:
                compute = functools.partial(_compute_payload,
                                            calibration=calibration,
                                            fast=fast)
        self.compute = compute

    # -- public API ---------------------------------------------------------

    def run(self, specs) -> SweepResult:
        specs = list(specs)
        outcomes: dict[tuple[str, str], TaskOutcome] = {}
        keys: dict[tuple[str, str], str] = {}
        cache_base = ((self.cache.hits, self.cache.misses)
                      if self.cache is not None else (0, 0))
        fastpath_base = _fastpath_counters()
        serve_base = _serve_counters()

        with obs.span("sweep.run", jobs=str(self.jobs),
                      tasks=str(len(specs))):
            pending = []
            for spec in specs:
                if self.cache is not None:
                    start = time.perf_counter()
                    keys[spec.key] = artifact_key(
                        spec, calibration=self.calibration)
                    payload = self.cache.get(keys[spec.key])
                    if payload is not None:
                        outcome = TaskOutcome(
                            spec.kind, spec.name, "hit",
                            wall_s=time.perf_counter() - start,
                            payload=payload)
                        outcomes[spec.key] = outcome
                        self.ledger.append(self._record(outcome))
                        self._note_outcome(outcome, emit_span=True)
                        continue
                pending.append(spec)

            if pending:
                if self.jobs > 1:
                    self._run_pool(pending, outcomes, keys)
                else:
                    self._run_inline(pending, outcomes, keys)

        result = SweepResult([outcomes[spec.key] for spec in specs],
                             jobs=self.jobs)
        if self.cache is not None:
            result.cache_hits = self.cache.hits - cache_base[0]
            result.cache_misses = self.cache.misses - cache_base[1]
        fastpath = _fastpath_delta(fastpath_base) or {}
        for outcome in result.outcomes:
            for key, value in (outcome.fastpath or {}).items():
                fastpath[key] = fastpath.get(key, 0) + value
        result.fastpath = fastpath
        result.serve = _serve_delta(serve_base) or {}
        return result

    def run_lanes(self, kernels, runner=None) -> SweepResult:
        """Fan homogeneous kernel tasks across in-process numpy lanes
        instead of worker processes.

        ``kernels`` is an iterable of ``(name, k, lanes)`` triples;
        each runs as one lock-step batch on the lane engine
        (:mod:`repro.pete.lanes`), which beats a process pool whenever
        the fleet is many instances of *one* program: state stays in
        dense arrays, dispatch is amortized over the batch, and there
        is no fork/pickle cost.  One :class:`TaskOutcome` per triple
        (``payload`` carries the per-lane cycle/instruction vectors and
        the engine's divergence accounting); one ledger record each,
        like :meth:`run`.
        """
        from repro.kernels.runner import KernelRunner

        kernels = list(kernels)
        if runner is None:
            runner = KernelRunner(ledger=self.ledger,
                                  calibration=self.calibration,
                                  fast=self.fast)
        outcomes: list[TaskOutcome] = []
        with obs.span("sweep.lanes", tasks=str(len(kernels))):
            for name, k, lanes in kernels:
                start = time.perf_counter()
                try:
                    batch = runner.measure_batch(name, k, lanes)
                except Exception as exc:
                    outcome = TaskOutcome(
                        "kernel", f"{name}:{k}", "failed",
                        wall_s=time.perf_counter() - start,
                        attempts=1,
                        error=f"{type(exc).__name__}: {exc}")
                else:
                    outcome = TaskOutcome(
                        "kernel", f"{name}:{k}", "computed",
                        wall_s=time.perf_counter() - start,
                        attempts=1,
                        payload={
                            "lanes": lanes,
                            "cycles": list(batch.cycles),
                            "instructions": list(batch.instructions),
                            "engine": batch.engine,
                            "wall_s": batch.wall_s,
                        })
                outcomes.append(outcome)
                self.ledger.append(self._record_lanes(outcome))
                self._note_outcome(outcome, emit_span=True)
        return SweepResult(outcomes, jobs=1)

    def _record_lanes(self, outcome: TaskOutcome) -> dict:
        from repro.trace.record import bench_record

        payload = outcome.payload or {}
        return bench_record(
            outcome.artifact, kind="lanes",
            config=f"lanes={payload.get('lanes', 0)}",
            cycles=sum(payload.get("cycles", ())),
            energy_uj=0.0,
            wall_s=outcome.wall_s,
            data={
                "status": outcome.status,
                "error": outcome.error,
                "engine": payload.get("engine"),
            },
        )

    def _note_outcome(self, outcome: TaskOutcome,
                      emit_span: bool = False) -> None:
        """Per-task telemetry: status counter, latency histogram,
        retry/reap counters; ``emit_span`` also records the task as an
        after-the-fact span (cache hits and inline tasks -- pooled
        attempts already hold live ``sweep.task`` spans)."""
        tel = obs.get()
        if tel is None:
            return
        tel.counter("sweep_tasks_total", status=outcome.status).inc()
        tel.histogram("sweep_task_wall_s").observe(outcome.wall_s)
        if outcome.retries:
            tel.counter("sweep_retries_total").inc(outcome.retries)
        if outcome.reaped:
            tel.counter("sweep_reaped_total").inc(outcome.reaped)
        if emit_span:
            tel.emit("sweep.task", wall_s=outcome.wall_s,
                     status="ok" if outcome.ok else "error",
                     kind=outcome.kind, task=outcome.name,
                     result=outcome.status)

    # -- completion ---------------------------------------------------------

    def _finish(self, spec, outcome: TaskOutcome, keys) -> None:
        """Persist one settled task immediately, so an interrupted
        sweep keeps every already-computed payload."""
        if outcome.status == "computed" and self.cache is not None:
            self.cache.put(keys[spec.key], outcome.payload,
                           artifact=outcome.artifact)
        self.ledger.append(self._record(outcome))

    # -- execution paths ----------------------------------------------------

    def _run_inline(self, pending, outcomes, keys) -> None:
        for spec in pending:
            start = time.perf_counter()
            error = None
            for attempt in range(1, self.retries + 2):
                try:
                    payload = self.compute(spec.kind, spec.name)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    continue
                outcomes[spec.key] = TaskOutcome(
                    spec.kind, spec.name, "computed",
                    wall_s=time.perf_counter() - start,
                    attempts=attempt, payload=payload)
                break
            else:
                outcomes[spec.key] = TaskOutcome(
                    spec.kind, spec.name, "failed",
                    wall_s=time.perf_counter() - start,
                    attempts=self.retries + 1, error=error)
            self._finish(spec, outcomes[spec.key], keys)
            self._note_outcome(outcomes[spec.key], emit_span=True)

    def _run_pool(self, pending, outcomes, keys) -> None:
        """Tasks on at most ``self.jobs`` long-lived worker processes.

        A worker takes one task at a time over its pipe and keeps its
        process-wide memos between tasks, so shared model results are
        computed once per worker rather than once per task.  Tasks are
        sent only to idle workers and each deadline is measured from
        the send, so queued tasks are never falsely timed out; a worker
        that outlives its deadline is killed and its slot freed for the
        queued/retried tasks instead of the sweep blocking on a hung
        simulation.  A worker whose task failed or that died is
        retired, and every retry starts a fresh process, so a failed
        attempt leaves no state behind for later tasks.
        """
        ctx = multiprocessing.get_context(self.mp_context)
        tel = obs.get()
        queue = deque((spec, 1) for spec in pending)
        first_start: dict[tuple[str, str], float] = {}
        reap_counts: dict[tuple[str, str], int] = {}
        fastpath_by_key: dict[tuple[str, str], dict[str, int]] = {}
        # conn -> worker process; conn -> (spec, attempt, t0, task_span)
        # for the workers that have a task out
        procs: dict[object, object] = {}
        running: dict[object, tuple] = {}

        def start_worker():
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_pool_worker,
                               args=(child, self.compute), daemon=True)
            proc.start()
            child.close()
            procs[conn] = proc
            return conn

        def stop_worker(conn) -> None:
            """Retire an idle (or dead) worker; reap it if it lingers."""
            proc = procs.pop(conn)
            try:
                conn.send(None)
            except OSError:
                pass                # it already died
            conn.close()
            proc.join(timeout=_KILL_GRACE_S)
            if proc.is_alive():
                _reap(proc)

        def absorb_extras(spec, extras) -> None:
            """Fold a worker's shipped counters/telemetry into the run."""
            if not extras:
                return
            delta = extras.get("fastpath")
            if delta:
                acc = fastpath_by_key.setdefault(spec.key, {})
                for key, value in delta.items():
                    acc[key] = acc.get(key, 0) + value
            if tel is not None:
                tel.merge(extras.get("telemetry"))

        def settle(spec, attempt, status, payload=None, error=None):
            outcome = TaskOutcome(
                spec.kind, spec.name, status,
                wall_s=time.perf_counter() - first_start[spec.key],
                attempts=attempt, error=error, payload=payload,
                reaped=reap_counts.get(spec.key, 0),
                fastpath=fastpath_by_key.get(spec.key))
            outcomes[spec.key] = outcome
            self._finish(spec, outcome, keys)
            self._note_outcome(outcome)

        def retry_or_fail(spec, attempt, error):
            if attempt <= self.retries:
                queue.append((spec, attempt + 1))
            else:
                settle(spec, attempt, "failed", error=error)

        try:
            while queue or running:
                while queue and len(running) < self.jobs:
                    spec, attempt = queue.popleft()
                    idle = [c for c in procs if c not in running]
                    if attempt == 1 and idle:
                        conn = idle[0]
                    else:
                        if len(procs) == self.jobs:
                            stop_worker(idle[0])
                        conn = start_worker()
                    task_span = None
                    obs_ctx = None
                    if tel is not None:
                        task_span = tel.begin(
                            "sweep.task", kind=spec.kind, task=spec.name,
                            attempt=str(attempt))
                        obs_ctx = {"trace_id": tel.trace_id,
                                   "parent_id": task_span.span_id}
                    conn.send((spec.kind, spec.name, obs_ctx))
                    first_start.setdefault(spec.key, time.perf_counter())
                    running[conn] = (spec, attempt, time.perf_counter(),
                                     task_span)

                now = time.perf_counter()
                budget = min(t0 + self.timeout_s
                             for _, _, t0, _ in running.values()) - now
                for conn in _connection_wait(list(running),
                                             timeout=max(0.0, budget)):
                    spec, attempt, _, task_span = running.pop(conn)
                    try:
                        status, value, extras = conn.recv()
                    except (EOFError, ValueError):
                        status, value, extras = "error", None, None
                    absorb_extras(spec, extras)
                    if task_span is not None:
                        task_span.annotate(result=status).finish(
                            "ok" if status == "ok" else "error")
                    if status == "ok":
                        settle(spec, attempt, "computed", payload=value)
                        continue
                    proc = procs[conn]
                    stop_worker(conn)
                    error = value or (f"worker died (exit code "
                                      f"{proc.exitcode})")
                    retry_or_fail(spec, attempt, error)

                now = time.perf_counter()
                for conn, (spec, attempt, t0,
                           task_span) in list(running.items()):
                    if now - t0 < self.timeout_s:
                        continue
                    del running[conn]
                    conn.close()
                    _reap(procs.pop(conn))
                    reap_counts[spec.key] = reap_counts.get(spec.key, 0) + 1
                    if task_span is not None:
                        task_span.annotate(result="reaped").finish("error")
                    retry_or_fail(spec, attempt,
                                  f"timed out after {self.timeout_s:g}s")
        finally:
            # an interrupt/crash must not leak live workers (or spans)
            for conn, (_, _, _, task_span) in running.items():
                conn.close()
                _reap(procs.pop(conn))
                if task_span is not None:
                    task_span.annotate(result="aborted").finish("error")
            for conn in list(procs):
                stop_worker(conn)

    # -- ledger -------------------------------------------------------------

    def _record(self, outcome: TaskOutcome) -> dict:
        from repro.trace.record import bench_record

        payload = outcome.payload or {}
        return bench_record(
            outcome.artifact, kind="sweep",
            config=f"jobs={self.jobs}",
            cycles=payload.get("cycles", 0),
            energy_uj=payload.get("energy_uj", 0.0),
            wall_s=outcome.wall_s,
            data={
                "status": outcome.status,
                "attempts": outcome.attempts,
                "retries": outcome.retries,
                "reaped": outcome.reaped,
                "error": outcome.error,
                "cached": self.cache is not None,
                "fast": self.fast,
                "compute_wall_s": payload.get("wall_s"),
                "fastpath": outcome.fastpath,
            })


def run_sweep(specs, jobs: int = 1, cache=None, **kwargs) -> SweepResult:
    """Convenience wrapper: build an engine, run ``specs`` through it."""
    return SweepEngine(jobs=jobs, cache=cache, **kwargs).run(specs)
