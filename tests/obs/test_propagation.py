"""Span propagation and metric merging across the sweep process pool,
under both ``fork`` and ``spawn`` start methods (satellite: ISSUE 8)."""

import multiprocessing
import os

import pytest

from repro import obs
from repro.harness.registry import ArtifactSpec
from repro.obs import export as ox
from repro.sweep.engine import run_sweep

START_METHODS = [m for m in ("fork", "spawn")
                 if m in multiprocessing.get_all_start_methods()]


class ListLedger:
    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)
        return record


def payload_for(kind, name):
    return {"text": f"{kind} {name}", "csv": "a\n1\n", "cycles": 7,
            "energy_uj": 0.5, "data": {}, "components": {},
            "wall_s": 0.01}


def fake_specs(*names):
    return [ArtifactSpec("table", n, payload_for) for n in names]


# -- module-level so spawn workers can unpickle it ----------------------


def obs_compute(kind, name):
    """Task body that emits telemetry from inside the worker: the
    engine's obs_ctx must have activated a joined plane already."""
    tel = obs.get()
    assert tel is not None, "worker telemetry was not activated"
    tel.counter("worker_events", shard="shared").inc()
    with obs.span("task.body", task=name):
        pass
    return payload_for(kind, name)


def plain_compute(kind, name):
    return payload_for(kind, name)


@pytest.mark.parametrize("method", START_METHODS)
def test_pool_spans_reconstruct_as_one_tree(method):
    obs.enable()
    result = run_sweep(fake_specs("a", "b", "c"), jobs=2,
                       ledger=ListLedger(), compute=obs_compute,
                       mp_context=method)
    snapshot = obs.disable()
    assert all(o.status == "computed" for o in result.outcomes)

    roots, children = ox.span_tree(snapshot["spans"])
    assert len(roots) == 1 and roots[0]["name"] == "sweep.run"
    tasks = children[roots[0]["span_id"]]
    assert [t["name"] for t in tasks] == ["sweep.task"] * 3

    parent_pid = os.getpid()
    worker_pids = set()
    for task in tasks:
        (worker,) = children[task["span_id"]]
        assert worker["name"] == "sweep.worker"
        assert worker["trace_id"] == snapshot["trace_id"]
        assert worker["pid"] != parent_pid
        worker_pids.add(worker["pid"])
        # and the task body's own span nests under the worker span
        (body,) = children[worker["span_id"]]
        assert body["name"] == "task.body"
        assert body["pid"] == worker["pid"]
    # tasks share at most ``jobs`` long-lived worker processes
    assert 1 <= len(worker_pids) <= 2


@pytest.mark.parametrize("method", START_METHODS)
def test_same_labeled_counter_from_two_workers_merges_to_the_sum(method):
    tel = obs.enable()
    run_sweep(fake_specs("a", "b"), jobs=2, ledger=ListLedger(),
              compute=obs_compute, mp_context=method)
    assert tel.counter("worker_events", shard="shared").value == 2
    snapshot = obs.disable()
    families = ox.parse_openmetrics(ox.to_openmetrics(snapshot))
    (sample,) = [s for s in families["worker_events"]
                 if s["sample"] == "worker_events_total"]
    assert sample["value"] == 2.0
    assert sample["labels"]["shard"] == "shared"


@pytest.mark.parametrize("method", START_METHODS)
def test_task_latency_histogram_covers_every_pooled_task(method):
    tel = obs.enable()
    run_sweep(fake_specs("a", "b", "c"), jobs=2, ledger=ListLedger(),
              compute=plain_compute, mp_context=method)
    hist = tel.histogram("sweep_task_wall_s")
    assert hist.count == 3
    assert tel.counter("sweep_tasks_total", status="computed").value == 3
    obs.disable()


def test_pool_runs_clean_with_telemetry_disabled():
    """The null-guarded pool path: no telemetry, no task spans, no
    worker activation -- and nothing breaks."""
    result = run_sweep(fake_specs("a", "b"), jobs=2,
                       ledger=ListLedger(), compute=plain_compute)
    assert all(o.status == "computed" for o in result.outcomes)
    assert obs.get() is None


def test_failed_attempts_keep_their_spans():
    obs.enable()
    run_sweep(fake_specs("a"), jobs=2, ledger=ListLedger(),
              compute=fail_compute, retries=1)
    snapshot = obs.disable()
    attempts = [s for s in snapshot["spans"]
                if s["name"] == "sweep.task"]
    assert [a["labels"]["attempt"] for a in attempts] == ["1", "2"]
    assert all(a["status"] == "error" for a in attempts)
    workers = [s for s in snapshot["spans"]
               if s["name"] == "sweep.worker"]
    assert len(workers) == 2
    assert all(w["status"] == "error" for w in workers)


def fail_compute(kind, name):
    raise RuntimeError("injected failure")
