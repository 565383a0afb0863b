"""The repository benchmark: four fixed-work workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Every unit of work runs in a fresh
interpreter (``perfbench/child.py``) with its own temporary cache
directory under ``.perfbench/``, the ledger and telemetry switches
unset, and inputs drawn from ``--seed``:

* ``regen-inline`` -- ``repro.api.sweep(jobs=1, cache=False, fast=True)``
  over all 26 artifacts;
* ``regen-pool`` -- ``repro.api.sweep(jobs=N, cache=True)`` over
  ``POOL_ARTIFACTS`` into an empty cache, then fresh-interpreter warm
  replays from that cache;
* ``serve-mixed`` -- ``repro.api.serve_session(workers=N)``, an open
  loop at ``SERVE_RATE`` req/s, then a closed loop with
  ``SERVE_OUTSTANDING`` requests outstanding;
* ``kernel-fleet`` -- seeded rounds of ``repro.api.compute_batch``
  kernel fleets at widths 1..256, a fresh interpreter per round.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` wraps each
layer's public functions (``perfbench/layers.py``), prints every
per-layer metric and writes the spans as a ``repro.obs.v1`` snapshot
under ``.perfbench/`` (``python -m repro.obs report --spans FILE``).
Outputs are checked (``perfbench/checks.py``); the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and
the exit code is nonzero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

from checks import (artifact_problems, recorded_digests,  # noqa: E402
                    trace_problems)
from child import WIDTHS  # noqa: E402
from layers import NAMED_ARTIFACTS  # noqa: E402

#: End-to-end metrics, printed by every workload with --trace 0.
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("cpu_ms", "ms"),
              ("peak_rss_mb", "MB"))

_ARTIFACTS = (*NAMED_ARTIFACTS, "rest")

#: Per-layer metrics, printed by every workload with --trace 1 (a layer
#: the workload does not reach reads 0).
PER_LAYER = (
    # latency percentiles are measured on every run, but on a shared
    # host their run-to-run spread (12-38% of the median) is too wide
    # to gate on, so they are reported here, without a bound
    ("p50_ms", "ms"), ("p99_ms", "ms"),
    ("billie_driver.s", "s"), ("billie_driver.calls", "count"),
    ("gf2m.s", "s"), ("gf2m.calls", "count"),
    ("opcount.s", "s"), ("opcount.calls", "count"),
    ("icache_model.s", "s"), ("icache_model.fetches", "count"),
    ("monte_driver.s", "s"),
    ("kernels.measure.s", "s"), ("kernels.measure.calls", "count"),
    ("pete.run.s", "s"), ("pete.insns", "count"),
    ("pete.ns_per_insn", "ns"),
    ("analysis.s", "s"),
    *((f"artifact.{a}.s", "s") for a in _ARTIFACTS),
    ("other.s", "s"),
    ("sweep.task.s", "s"), ("sweep.task_max.s", "s"),
    ("sweep.idle.s", "s"), ("sweep.retries", "count"),
    ("cache.write.s", "s"), ("cache.writes", "count"),
    ("cache.read.s", "s"), ("cache.hits", "count"),
    ("cache.misses", "count"), ("keys.s", "s"), ("warm_s", "s"),
    ("serve.queue_ms.p50", "ms"), ("serve.queue_ms.p99", "ms"),
    ("serve.service_ms.p50", "ms"), ("serve.service_ms.p99", "ms"),
    ("serve.other_ms.p50", "ms"), ("serve.occupancy", "lanes"),
    ("serve.batches", "count"),
    ("loadgen.lag_ms.p99", "ms"), ("loadgen.offered_per_s", "1/s"),
    ("api.overhead.s", "s"), ("kernels.prepare_lanes.s", "s"),
    ("lanes.run.s", "s"), ("lanes.divergences", "count"),
    ("lanes.demotions", "count"), ("lanes.fallback_insns", "count"),
    *((f"fleet.w{w}.per_s", "1/s") for w in WIDTHS),
    ("trace.pass_s", "s"),
)

#: regen-pool's artifact set: every artifact whose cold pooled task
#: takes under 5 s on a 2-core host (the eight slow ones, 8-28 s each,
#: would make one run 90 s).
POOL_ARTIFACTS = (
    "table_7.1", "table_7.3", "table_7.4", "table_7.5", "table_bounds",
    "figure_7.1", "figure_7.2", "figure_7.3", "figure_7.4", "figure_7.9",
    "figure_7.11", "figure_7.13", "figure_7.14", "figure_7.15",
    "figure_s7.7", "figure_s7.8", "figure_s8.w64", "figure_bg.rsa")
COLD_PASSES = 2
WARM_REPLAYS = 2

SERVE_RATE = 200.0            # req/s offered in the open loop
SERVE_OUTSTANDING = 64        # requests kept in flight in the closed loop
SERVE_OPEN_PER_S = 200        # open-loop requests per --seconds
SERVE_CLOSED_PER_S = 170      # closed-loop requests per --seconds

FLEET_ROUND_S = 2.0           # --seconds per round of 40 calls

#: Set-up probes per run, on top of the set-ups the measured children
#: do: six set-ups per run on regen-inline and serve-mixed, nine on
#: regen-pool and kernel-fleet (at --seconds 12, six rounds).
PROBES = {"regen-inline": 5, "regen-pool": 5, "serve-mixed": 5,
          "kernel-fleet": 3}

#: Everything in a run, children included, ends within this many seconds.
DEADLINE_S = 170.0


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (``q`` in 0..100); a
    failed operation enters as ``inf``."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    if pos == lo or data[lo] == data[hi]:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL whatever is left of a child's process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Run:
    """One invocation: its working directory, children and findings."""

    def __init__(self, root: str, args) -> None:
        self.root = root
        self.args = args
        self.t0 = time.perf_counter()
        self.work = os.path.join(root, ".perfbench",
                                 f"work-{args.workload}-{args.seed}-"
                                 f"{os.getpid()}")
        os.makedirs(self.work)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")
                    and k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update({
            "PYTHONPATH": os.path.join(root, "src"),
            "PYTHONPYCACHEPREFIX": os.path.join(root, ".perfbench",
                                                "pycache"),
            "PYTHONHASHSEED": "0",
            "TMPDIR": self.work,
        })
        self.procs: list[subprocess.Popen] = []
        self.setups: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.telemetry = self.run_span = None
        if args.trace:
            sys.path.insert(0, os.path.join(root, "src"))
            from repro.obs.core import Telemetry

            self.telemetry = Telemetry()
            self.run_span = self.telemetry.begin(
                f"perfbench.{args.workload}", seed=str(args.seed))

    def tempdir(self, name: str) -> str:
        path = os.path.join(self.work, name)
        os.makedirs(path)
        return path

    def child(self, params: dict, probe: bool = False) -> dict | None:
        """Start a child, time its set-up, return its result."""
        params = dict(params, probe=probe, trace=(
            {"trace_id": self.telemetry.trace_id,
             "parent_id": self.run_span.span_id}
            if self.telemetry is not None and not probe else None))
        left = DEADLINE_S - (time.perf_counter() - self.t0)
        if left <= 0:
            raise RuntimeError("run deadline passed")
        start = time.perf_counter()
        # own process group, so that stop() also reaches the service
        # and pool workers a child may leave behind when it is killed
        proc = subprocess.Popen(
            [sys.executable, "-u", CHILD, json.dumps(params)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        self.procs.append(proc)
        timer = threading.Timer(left, _kill_group, (proc,))
        timer.start()
        try:
            line = proc.stdout.readline()
            self.setups.append(time.perf_counter() - start)
            if line.strip() != "ready":
                raise RuntimeError(f"child {params['role']} did not get "
                                   f"ready: {line!r}")
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            timer.cancel()
        if proc.returncode != 0 or not lines \
                or not lines[-1].startswith("result "):
            raise RuntimeError(f"child {params['role']} exited "
                               f"{proc.returncode}")
        out = json.loads(lines[-1][len("result "):])
        if out is not None and "trace" in out:
            self.telemetry.merge(out["trace"]["snapshot"])
        return out

    def probes(self, params: dict) -> None:
        for _ in range(PROBES[self.args.workload]):
            self.child(params, probe=True)

    def stop(self) -> None:
        for proc in self.procs:
            _kill_group(proc)
            proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)

    def snapshot(self) -> dict:
        self.run_span.finish()
        return self.telemetry.snapshot()


def _layer_sums(traces: list[dict]) -> dict:
    """Per-layer self time, inclusive time, calls and counts summed
    over the children's traces."""
    sums: dict = {"self_s": {}, "total_s": {}, "calls": {}, "counts": {}}
    for trace in traces:
        for part, table in sums.items():
            for key, value in trace[part].items():
                table[key] = table.get(key, 0) + value
    return sums


def _ms(seconds: float) -> float:
    return seconds * 1e3


# ---------------------------------------------------------------------------
# Workloads: each returns (end_to_end, per_layer)
# ---------------------------------------------------------------------------


def _regen_params(jobs: int, cache_dir, only) -> dict:
    return {"role": "regen", "jobs": jobs, "cache_dir": cache_dir,
            "only": list(only) if only else None}


def _check_regen(run: Run, out: dict, recorded: dict, label: str,
                 want_status: str) -> None:
    run.attempted += len(out["outcomes"])
    digests = {}
    for o in out["outcomes"]:
        if o["status"] != want_status:
            run.problems.append(f"{label} {o['artifact']}: {o['status']} "
                                f"({o['error']})")
        elif o["digest"] is not None:
            digests[o["artifact"]] = o["digest"]
    run.problems += [f"{label} {p}"
                     for p in artifact_problems(digests, recorded)]


def regen_inline(run: Run):
    params = _regen_params(1, None, None)
    run.probes(params)
    out = run.child(params)
    _check_regen(run, out, recorded_digests(), "pass", "computed")
    done = [_ms(t) for t in out["done_s"]]
    e2e = {"pass_s": out["wall_s"], "cpu_ms": _ms(out["cpu_s"]),
           "p50_ms": percentile(done, 50),
           "p99_ms": percentile(done, 99)}
    layers = {}
    if run.args.trace:
        trace = out["trace"]
        self_s, calls, counts = trace["self_s"], trace["calls"], \
            trace["counts"]
        for layer in ("billie_driver", "gf2m", "opcount", "icache_model",
                      "monte_driver", "kernels.measure", "pete.run",
                      "analysis", *(f"artifact.{a}" for a in _ARTIFACTS)):
            layers[f"{layer}.s"] = self_s.get(layer, 0.0)
            layers[f"{layer}.calls"] = calls.get(layer, 0)
        layers["icache_model.fetches"] = counts.get("icache_model.fetches",
                                                    0)
        layers["pete.insns"] = counts.get("pete.insns", 0)
        if counts.get("pete.insns"):
            layers["pete.ns_per_insn"] = (trace["total_s"]["pete.run"] * 1e9
                                          / counts["pete.insns"])
        layers["other.s"] = self_s["regen.pass"]
        layers["trace.pass_s"] = trace["total_s"]["regen.pass"]
        run.problems += [f"pass {p}" for p in trace_problems(
            self_s, "regen.pass", out["wall_s"])]
    return e2e, layers


def regen_pool(run: Run):
    jobs = len(os.sched_getaffinity(0))
    run.probes(_regen_params(jobs, None, POOL_ARTIFACTS))
    recorded = recorded_digests()
    colds = []
    for i in range(COLD_PASSES):
        params = _regen_params(jobs, run.tempdir(f"sweep-cache-{i}"),
                               POOL_ARTIFACTS)
        cold = run.child(params)
        _check_regen(run, cold, recorded, f"cold {i}", "computed")
        if len(cold["done_s"]) != len(cold["outcomes"]):
            run.problems.append(
                f"cold {i} wrote {len(cold['done_s'])} cache entries "
                f"for {len(cold['outcomes'])} artifacts")
        colds.append(cold)
    warm = []
    for i in range(WARM_REPLAYS):
        out = run.child(params)
        _check_regen(run, out, recorded, f"warm {i}", "hit")
        warm.append(out)
    done = [_ms(t) for c in colds for t in c["done_s"]]
    e2e = {"pass_s": statistics.median(c["wall_s"] for c in colds),
           "cpu_ms": _ms(statistics.median(c["cpu_s"] for c in colds)),
           "p50_ms": percentile(done, 50),
           "p99_ms": percentile(done, 99)}
    layers = {}
    if run.args.trace:
        sums = _layer_sums([c["trace"] for c in colds + warm])
        self_s, counts = sums["self_s"], sums["counts"]
        tasks = [sum(o["wall_s"] for o in c["outcomes"]) for c in colds]
        layers.update({
            "sweep.task.s": statistics.mean(tasks),
            "sweep.task_max.s": max(o["wall_s"] for c in colds
                                    for o in c["outcomes"]),
            "sweep.idle.s": statistics.mean(
                jobs * c["wall_s"] - t for c, t in zip(colds, tasks)),
            "sweep.retries": sum(o["attempts"] - 1 for c in colds
                                 for o in c["outcomes"]),
            "cache.write.s": self_s.get("cache.write", 0.0),
            "cache.writes": counts.get("cache.writes", 0),
            "cache.read.s": self_s.get("cache.read", 0.0),
            "cache.hits": counts.get("cache.hits", 0),
            "cache.misses": counts.get("cache.misses", 0),
            "keys.s": self_s.get("keys", 0.0),
            "warm_s": statistics.median(w["wall_s"] for w in warm),
            "trace.pass_s": e2e["pass_s"],
        })
    return e2e, layers


def serve_mixed(run: Run):
    workers = len(os.sched_getaffinity(0))
    base = {"role": "serve", "workers": workers}
    for i in range(PROBES[run.args.workload]):
        run.child(dict(base, cache_dir=run.tempdir(f"serve-probe-{i}")),
                  probe=True)
    out = run.child(dict(
        base, cache_dir=run.tempdir("serve-cache"), seed=run.args.seed,
        rate=SERVE_RATE,
        open_requests=SERVE_OPEN_PER_S * run.args.seconds,
        closed_requests=SERVE_CLOSED_PER_S * run.args.seconds,
        outstanding=SERVE_OUTSTANDING))
    books = out["books"]
    run.attempted += books["sent"]
    run.problems += out["problems"]
    if books["ok"] != books["sent"]:
        run.problems.append(f"{books['sent'] - books['ok']} of "
                            f"{books['sent']} requests not ok: {books}")
    latency = [_ms(r["latency_s"]) if r["ok"] else float("inf")
               for r in out["open"]]
    e2e = {"pass_s": out["closed_wall_s"],
           "cpu_ms": _ms(out["cpu_s"]) / max(books["ok"], 1),
           "p50_ms": percentile(latency, 50),
           "p99_ms": percentile(latency, 99)}
    layers = {}
    if run.args.trace:
        ok = [r for r in out["open"] if r["ok"]]
        queue = [_ms(r["queue_s"]) for r in ok]
        service = [_ms(r["service_s"]) for r in ok]
        other = [_ms(r["total_s"] - r["queue_s"] - r["service_s"])
                 for r in ok]
        layers.update({
            "serve.queue_ms.p50": percentile(queue, 50),
            "serve.queue_ms.p99": percentile(queue, 99),
            "serve.service_ms.p50": percentile(service, 50),
            "serve.service_ms.p99": percentile(service, 99),
            "serve.other_ms.p50": percentile(other, 50),
            "serve.occupancy": out["lanes"] / max(out["batches"], 1),
            "serve.batches": out["batches"],
            "loadgen.lag_ms.p99": _ms(percentile(out["lags_s"], 99)),
            "loadgen.offered_per_s": out["offered_per_s"],
            "trace.pass_s": out["closed_wall_s"],
        })
    return e2e, layers


def kernel_fleet(run: Run):
    base = {"role": "fleet"}
    run.probes(base)
    rng = random.Random(run.args.seed)
    rounds = [run.child(dict(base, seed=rng.getrandbits(64)))
              for _ in range(max(1, round(run.args.seconds
                                          / FLEET_ROUND_S)))]
    calls = [c for r in rounds for c in r["calls"]]
    instances = sum(c["width"] for c in rounds[0]["calls"])
    run.attempted += sum(c["width"] for c in calls)
    for r in rounds:
        run.problems += r["problems"]
    walls = [c["wall_s"] for c in calls]
    e2e = {"pass_s": statistics.median(
               sum(c["wall_s"] for c in r["calls"]) for r in rounds),
           "cpu_ms": _ms(statistics.median(
               sum(c["cpu_s"] for c in r["calls"]) for r in rounds))
           / instances,
           "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                            for r in rounds),
           "p50_ms": _ms(percentile(walls, 50)),
           "p99_ms": _ms(percentile(walls, 99))}
    layers = {}
    if run.args.trace:
        sums = _layer_sums([r["trace"] for r in rounds])
        self_s, total_s = sums["self_s"], sums["total_s"]
        engine = {}
        for r in rounds:
            for key, value in r["engine"].items():
                engine[key] = engine.get(key, 0) + value
        layers.update({
            # compute_batch minus the measure_batch inside it (the warm
            # calls' measure_batch runs outside any compute_batch span)
            "api.overhead.s": self_s["api.compute_batch"],
            "kernels.prepare_lanes.s": self_s.get("kernels.prepare_lanes",
                                                  0.0),
            "lanes.run.s": self_s.get("lanes.run", 0.0),
            "lanes.divergences": engine.get("divergences", 0),
            "lanes.demotions": engine.get("demotions", 0),
            "lanes.fallback_insns": engine.get("fallback_instructions", 0),
            "trace.pass_s": e2e["pass_s"],
        })
        for w in WIDTHS:
            mine = [c for c in calls if c["width"] == w]
            layers[f"fleet.w{w}.per_s"] = (
                sum(c["width"] for c in mine)
                / sum(c["wall_s"] for c in mine))
    return e2e, layers


WORKLOADS = {"regen-inline": regen_inline, "regen-pool": regen_pool,
             "serve-mixed": serve_mixed, "kernel-fleet": kernel_fleet}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def host_fingerprint() -> dict:
    """CPU count, interpreter and numpy versions, and a calibration
    loop score (pure-Python loop iterations per second, best of 5)."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        best = min(best, time.perf_counter() - t0)
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "calibration_loops_per_s": 200_000 / best}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "api.py")):
        print("perfbench: src/repro/api.py not found; run from the "
              "repository root", file=sys.stderr)
        return 2

    print("host " + json.dumps(host_fingerprint()), flush=True)
    run = Run(root, args)
    try:
        e2e, layers = WORKLOADS[args.workload](run)
    finally:
        run.stop()
    e2e["setup_s"] = statistics.median(run.setups)
    e2e.setdefault("peak_rss_mb", max(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0)

    if args.trace:
        path = os.path.join(root, ".perfbench",
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(run.snapshot(), fh)
        print(f"trace {os.path.relpath(path, root)} "
              f"({len(run.telemetry.spans)} spans)")
        names = PER_LAYER
        values = dict(e2e, **layers)
    else:
        names = END_TO_END
        values = e2e
    # a latency with failed requests in it is infinite; JSON has no inf
    metrics = {name: {"value": min(float(values.get(name, 0.0)),
                                   sys.float_info.max), "unit": unit}
               for name, unit in names}
    for name, m in metrics.items():
        print(f"{args.workload:<13} {name:<26} {m['value']:>14.6f} "
              f"{m['unit']}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    failed = len(run.problems)
    print(json.dumps({"correct": failed == 0,
                      "attempted": max(run.attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
