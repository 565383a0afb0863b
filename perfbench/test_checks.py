"""The benchmark's own tests: each output check fails on a corrupted
output, the trace's self times reconcile, and the metric lists match
``BENCHMARK.json``.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def test_changed_artifact_byte_fails_the_digest_check():
    import repro.api as api

    payload = api.compute_artifact("table_7.5")
    recorded = checks.recorded_digests()
    digests = {"table_7.5": checks.artifact_digest(payload)}
    assert checks.artifact_problems(digests, recorded) == []

    text = payload["text"]
    flipped = chr(ord(text[0]) ^ 1)
    corrupted = dict(payload, text=flipped + text[1:])
    digests = {"table_7.5": checks.artifact_digest(corrupted)}
    assert checks.artifact_problems(digests, recorded)


def test_wrong_lane_cycle_count_fails_the_scalar_check():
    import repro.api as api
    import repro.kernels.runner as kr

    seed, lane = 1234, 2
    kr._RNG.seed(seed)
    result = api.compute_batch(api.BatchRequest.kernels("os_mul", 6, 4))
    payload = result.lanes[lane].payload
    scalar = child._scalar_lane("os_mul", 6, seed, lane)
    assert checks.lane_problems("os_mul", payload, *scalar) == []

    wrong = dict(payload, cycles=payload["cycles"] + 1)
    assert checks.lane_problems("os_mul", wrong, *scalar)


def test_unreconciled_request_fails_the_books_check(tmp_path):
    import repro.api as api

    async def go():
        async with api.serve_session(workers=1,
                                     cache_dir=str(tmp_path)) as service:
            before = service.counters()
            requests = child._requests(random.Random(1), 5)
            outcomes = [await child._submit(service, r) for r in requests]
            return before, service.counters(), outcomes

    before, after, outcomes = asyncio.run(go())
    books = {"sent": 5, "ok": 0, "failed": 0, "shed": 0, "drained": 0}
    for status, _, _ in outcomes:
        books[status] += 1
    assert books["ok"] == 5
    assert checks.books_problems(books, before, after) == []

    extra = dict(books, sent=6, ok=6)
    assert checks.books_problems(extra, before, after)


def _traced_pass(root_sleep_s: float) -> tuple[layers.Tracer, float]:
    """A small traced pass timed apart from the tracer, as child.py
    times a regeneration pass; the root spends ``root_sleep_s`` outside
    every layer."""
    tracer = layers.Tracer("t")
    leaf = tracer.wrap("gf2m", lambda x: time.sleep(0.002) or x * 2)
    mid = tracer.wrap("billie_driver",
                      lambda: sum(leaf(i) for i in range(50)))
    t0 = time.perf_counter()
    with tracer.span("regen.pass"):
        mid()
        leaf(3)
        time.sleep(root_sleep_s)
    return tracer, time.perf_counter() - t0


def test_layer_self_times_reconcile_to_the_pass_wall():
    tracer, wall = _traced_pass(0.0)
    assert tracer.calls["gf2m"] == 51
    assert checks.trace_problems(tracer.self_s, "regen.pass", wall) == []
    # hot leaves reach the spans aggregated under their parent, and
    # every span is in the trace the tracer was made for
    spans = tracer.telemetry.snapshot()["spans"]
    assert [s["name"] for s in spans].count("gf2m") == 2
    assert {s["trace_id"] for s in spans} == {"t"}


def test_time_no_layer_covers_fails_the_trace_check():
    tracer, wall = _traced_pass(0.05)
    problems = checks.trace_problems(tracer.self_s, "regen.pass", wall)
    assert len(problems) == 1 and "other" in problems[0]


def test_a_pass_the_tracer_missed_fails_the_trace_check():
    tracer, wall = _traced_pass(0.0)
    problems = checks.trace_problems(tracer.self_s, "regen.pass",
                                     wall * 1.1)
    assert len(problems) == 1 and "!= pass wall" in problems[0]


def test_benchmark_json_lists_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regen-inline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
