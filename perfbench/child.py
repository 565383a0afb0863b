"""One benchmark process: set up, say ``ready``, do the work, report.

``python3 perfbench/child.py '<json params>'`` is started by
``perfbench/run.py`` in a fresh interpreter for every unit of work (a
regeneration pass, a service boot, a kernel fleet), so no in-process
cache survives from one unit to the next.  It prints ``ready`` once the
first unit of work can begin -- the parent times set-up up to that line
-- and ``result <json>`` as its last line.  With ``params["probe"]``
set it stops right after ``ready``: the parent uses such probes to
take set-up time several times per run.

Roles:

* ``regen`` -- ``repro.api.sweep`` over a fixed artifact set, inline
  or pooled, with or without a result cache;
* ``serve`` -- ``repro.api.serve_session``, then an open loop at a fixed
  rate (latency) and a closed loop with a fixed number of requests
  outstanding (capacity);
* ``fleet`` -- warm calls, then one round of
  ``repro.api.compute_batch(BatchRequest.kernels(name, k, width))``:
  every (kernel, width) pair once, in a seeded order.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import random
import resource
import sys
import time

from checks import artifact_digest, books_problems, lane_problems
from layers import Tracer, install

#: Kernel fleet: (name, k) pairs and the lane widths each is called at.
KERNELS = (("mp_add", 8), ("mp_sub", 8), ("os_mul", 6),
           ("ps_mul_ext", 6), ("comb_mul", 6), ("fmul_p192", 6),
           ("fmul_b163", 6), ("scalar_ladder", 16))
WIDTHS = (1, 4, 16, 64, 256)
WARM_WIDTH = 4

#: Pricing configs per curve that both the model and the service
#: accept.
SERVE_CONFIGS = {"P-192": ("baseline", "isa_ext", "isa_ext_ic"),
                 "B-163": ("baseline", "binary_isa")}


def cpu_s() -> float:
    """CPU time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def ready() -> None:
    print("ready", flush=True)


def _span(tracer: Tracer | None, layer: str):
    return tracer.span(layer) if tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# regen
# ---------------------------------------------------------------------------


def regen(params: dict, tracer: Tracer | None) -> dict | None:
    import repro.api as api
    from repro.harness.registry import select

    only = params["only"]
    select(only)                     # registry built before "ready"
    ready()
    if params["probe"]:
        return None
    cache_dir = params["cache_dir"]
    cpu0 = cpu_s()
    epoch0 = time.time()
    t0 = time.perf_counter()
    with _span(tracer, "regen.pass"):
        result = api.sweep(only, jobs=params["jobs"],
                           cache=cache_dir is not None,
                           cache_dir=cache_dir, fast=True)
    wall = time.perf_counter() - t0
    cpu = cpu_s() - cpu0
    # when each artifact's result became available, from pass start:
    # a cold cached pass writes each entry as its task settles, an
    # inline pass finishes its tasks back to back
    if cache_dir is None:
        done = list(itertools.accumulate(o.wall_s
                                         for o in result.outcomes))
    else:
        done = [os.stat(os.path.join(cache_dir, f)).st_mtime - epoch0
                for f in os.listdir(cache_dir) if f.endswith(".json")]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "done_s": done,
        "outcomes": [{
            "artifact": o.artifact, "status": o.status,
            "wall_s": o.wall_s, "attempts": o.attempts,
            "error": o.error,
            "digest": artifact_digest(o.payload) if o.ok else None,
        } for o in result.outcomes],
    }


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def _requests(rng: random.Random, n: int) -> list:
    from repro.serve.loadgen import DEFAULT_MIX
    from repro.serve.types import ServeRequest

    pairs = [(op, curve) for op, curve, _ in DEFAULT_MIX]
    weights = [w for _, _, w in DEFAULT_MIX]
    out = []
    for _ in range(n):
        op, curve = rng.choices(pairs, weights=weights)[0]
        out.append(ServeRequest(op=op, curve=curve,
                                config=rng.choice(SERVE_CONFIGS[curve])))
    return out


def _due_times(rng: random.Random, n: int, rate: float) -> list[float]:
    """A Poisson arrival schedule conditioned on ``n`` arrivals: the
    first at 0, the last at ``(n - 1) / rate``, the rest uniform in
    between -- so the offered rate is exactly ``rate``."""
    span = (n - 1) / rate
    inner = sorted(rng.uniform(0.0, span) for _ in range(n - 2))
    return [0.0] + inner + [span]


def _proc_cpu_s(pids) -> float:
    tick = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


async def _submit(service, request) -> tuple[str, object, float]:
    from repro.serve.types import RequestShed, ServiceDraining

    try:
        response = await service.submit(request)
    except RequestShed:
        return "shed", None, time.perf_counter()
    except ServiceDraining:
        return "drained", None, time.perf_counter()
    return ("ok" if response.ok else "failed"), response, \
        time.perf_counter()


async def _open_loop(service, requests, due) -> tuple[list, list, float]:
    """Send each request at its absolute due time; latency counts from
    the due time, so a late send is charged to the request."""
    t_start = time.perf_counter() + 0.05
    tasks, lags = [], []
    for request, offset in zip(requests, due):
        target = t_start + offset
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - target)
        tasks.append((target, asyncio.ensure_future(
            _submit(service, request))))
    first_send = t_start + lags[0]
    last_send = t_start + due[-1] + lags[-1]
    done = []
    for target, task in tasks:
        status, response, end = await task
        done.append((status, response, end - target))
    return done, lags, (len(requests) - 1) / (last_send - first_send)


async def _closed_loop(service, requests, outstanding) -> tuple[list, float]:
    pending = iter(requests)
    done: list = []

    async def client() -> None:
        for request in pending:
            t0 = time.perf_counter()
            status, response, end = await _submit(service, request)
            done.append((status, response, end - t0))

    t0 = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(outstanding)))
    return done, time.perf_counter() - t0


async def _serve(params: dict, tracer: Tracer | None) -> dict | None:
    import repro.api as api
    from repro.serve.service import worker_pids

    async with api.serve_session(workers=params["workers"],
                                 cache_dir=params["cache_dir"]) as service:
        ready()
        if params["probe"]:
            return None
        rng = random.Random(params["seed"])
        n_open, n_closed = params["open_requests"], params["closed_requests"]
        requests = _requests(rng, n_open + n_closed)
        due = _due_times(rng, n_open, params["rate"])
        pids = worker_pids(service)
        before = service.counters()
        cpu0 = cpu_s() + _proc_cpu_s(pids)
        with _span(tracer, "serve.open_loop"):
            opened, lags, offered = await _open_loop(
                service, requests[:n_open], due)
        with _span(tracer, "serve.closed_loop"):
            closed, closed_wall = await _closed_loop(
                service, requests[n_open:], params["outstanding"])
        cpu = cpu_s() + _proc_cpu_s(pids) - cpu0
        after = service.counters()

    books = {"sent": n_open + n_closed, "ok": 0, "failed": 0, "shed": 0,
             "drained": 0}
    for status, _, _ in opened + closed:
        books[status] += 1
    problems = books_problems(books, before, after)

    def row(status, response, latency):
        if response is None:
            return {"ok": False, "latency_s": latency}
        return {"ok": status == "ok", "latency_s": latency,
                "queue_s": response.queue_s,
                "service_s": response.service_s,
                "total_s": response.latency_s,
                "batch": response.batch_size}

    return {
        "open": [row(*r) for r in opened],
        "closed_ok": sum(1 for s, _, _ in closed if s == "ok"),
        "closed_wall_s": closed_wall,
        "lags_s": lags,
        "offered_per_s": offered,
        "cpu_s": cpu,
        "books": books,
        "problems": problems,
        "batches": after["batches_formed"] - before["batches_formed"],
        "lanes": after["lanes_dispatched"] - before["lanes_dispatched"],
    }


def serve(params: dict, tracer: Tracer | None) -> dict | None:
    return asyncio.run(_serve(params, tracer))


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------


def _scalar_lane(name: str, k: int, seed: int, lane: int) -> tuple[int, int]:
    """Cycles and instructions of lane ``lane`` of a batch whose
    operands were drawn after seeding the kernel RNG with ``seed``,
    re-run on the scalar reference interpreter."""
    import repro.kernels.runner as kr

    kr._RNG.seed(seed)
    runner = kr.KernelRunner(fast=False)
    for _ in range(lane + 1):
        cpu, entry = runner.prepare(name, k)
    stats = cpu.run(entry)
    return stats.cycles, stats.instructions


def fleet(params: dict, tracer: Tracer | None) -> dict | None:
    import repro.api as api
    import repro.kernels.runner as kr

    for name, k in KERNELS:
        warm = api.compute_batch(api.BatchRequest.kernels(name, k,
                                                          WARM_WIDTH))
        if not warm.ok:
            raise RuntimeError(f"warm call {name}:{k} failed")
    ready()
    if params["probe"]:
        return None
    rng = random.Random(params["seed"])
    calls, problems, engine = [], [], {}
    order = [(name, k, w) for name, k in KERNELS for w in WIDTHS]
    rng.shuffle(order)
    for name, k, width in order:
        seed = rng.getrandbits(64)
        lane = rng.randrange(width)
        kr._RNG.seed(seed)
        cpu0 = cpu_s()
        t0 = time.perf_counter()
        with _span(tracer, "api.compute_batch"):
            result = api.compute_batch(
                api.BatchRequest.kernels(name, k, width))
        wall = time.perf_counter() - t0
        cpu = cpu_s() - cpu0
        label = f"{name}:{k}x{width}"
        if not result.ok or len(result.lanes) != width:
            problems.append(f"{label}: batch failed")
        else:
            problems += lane_problems(
                f"{label} lane {lane}", result.lanes[lane].payload,
                *_scalar_lane(name, k, seed, lane))
        for key, value in result.stats["lane_engine"].items():
            engine[key] = engine.get(key, 0) + value
        calls.append({"width": width, "wall_s": wall, "cpu_s": cpu})
    return {"calls": calls, "problems": problems, "engine": engine,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


ROLES = {"regen": regen, "serve": serve, "fleet": fleet}


def main() -> int:
    params = json.loads(sys.argv[1])
    tracer = None
    if params.get("trace"):
        tracer = Tracer(params["trace"]["trace_id"],
                        params["trace"]["parent_id"])
        install(tracer)
    out = ROLES[params["role"]](params, tracer)
    if out is not None and tracer is not None:
        out["trace"] = {"self_s": dict(tracer.self_s),
                        "total_s": dict(tracer.total_s),
                        "calls": dict(tracer.calls),
                        "counts": dict(tracer.counts),
                        "snapshot": tracer.telemetry.snapshot()}
    print("result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
