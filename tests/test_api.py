"""The public facade: batch engine, scalar wrappers, sessions."""

import dataclasses

import pytest

from repro.api import BatchItem, BatchRequest, UnknownArtifactError, \
    compute_artifact, compute_batch, open_session, sweep
from repro.energy.calibration import CALIBRATION


def _stable(payload):
    """Payload minus the run-to-run wall-clock field."""
    return {k: v for k, v in payload.items() if k != "wall_s"}


def test_compute_artifact_accepts_only_style_tokens():
    a = compute_artifact("table_7.5")
    b = compute_artifact("7.5", kind="table")
    assert a["text"] == b["text"]
    assert a["text"].startswith("Table 7.5")


def test_ambiguous_and_unknown_names_raise():
    with pytest.raises(UnknownArtifactError, match="ambiguous"):
        compute_artifact("7.5")          # both a table and a figure
    with pytest.raises(UnknownArtifactError):
        compute_artifact("99.9")


def test_sweep_facade_runs_a_selection(tmp_path):
    result = sweep(only=["table_7.3"], cache_dir=tmp_path)
    assert len(result.outcomes) == 1
    assert result.outcomes[0].ok
    warm = sweep(only=["table_7.3"], cache_dir=tmp_path)
    assert warm.hits == 1


def test_session_prices_artifacts_with_its_calibration():
    hot = dataclasses.replace(CALIBRATION, ram_energy_scale=4.0)
    default = compute_artifact("figure_7.4")
    with open_session(calibration=hot) as session:
        scaled = session.compute_artifact("figure_7.4")
    assert scaled["text"] != default["text"]
    # leaving the session restores the default pricing
    assert compute_artifact("figure_7.4")["text"] == default["text"]


def test_session_is_reentrant_and_exposes_identity():
    with open_session() as session:
        with session:
            assert session.fingerprint == CALIBRATION.fingerprint()
    runner = session.runner(ledger=type("L", (), {
        "append": lambda self, r: r})())
    assert runner.cal is CALIBRATION


def test_session_sweep_keys_cache_by_calibration(tmp_path):
    hot = dataclasses.replace(CALIBRATION, ram_energy_scale=4.0)
    cold = sweep(only=["table_7.3"], cache_dir=tmp_path)
    assert cold.computed == 1
    with open_session(calibration=hot) as session:
        other = session.sweep(only=["table_7.3"], cache_dir=tmp_path)
    assert other.computed == 1 and other.hits == 0


def test_pooled_session_sweep_prices_with_its_calibration(tmp_path):
    """jobs>1 must not poison the cache: the payload stored under the
    session's key equals what the session computes inline, not the
    default-calibration result."""
    hot = dataclasses.replace(CALIBRATION, ram_energy_scale=4.0)
    default_text = compute_artifact("figure_7.4")["text"]
    with open_session(calibration=hot) as session:
        pooled = session.sweep(only=["figure_7.4"], jobs=2,
                               cache_dir=tmp_path)
        expected = session.compute_artifact("figure_7.4")["text"]
    (outcome,) = pooled.outcomes
    assert outcome.status == "computed"
    assert outcome.payload["text"] == expected
    assert outcome.payload["text"] != default_text
    # the warm rerun serves that same payload back under the hot key
    with open_session(calibration=hot) as session:
        warm = session.sweep(only=["figure_7.4"], jobs=1,
                             cache_dir=tmp_path)
    assert warm.hits == 1
    assert warm.outcomes[0].payload["text"] == expected


def test_scalar_wrapper_is_identical_to_direct_production():
    """compute_artifact is a batch-of-one now; its payload must stay
    identical (modulo wall clock) to producing the spec directly."""
    from repro.harness.registry import get_spec

    assert _stable(compute_artifact("table_7.3")) == \
        _stable(get_spec("table", "7.3").payload())


def test_scalar_wrapper_still_propagates_producer_errors():
    def boom():
        raise ValueError("producer exploded")

    from repro.harness import registry

    spec = registry.select(["table_7.3"])[0]
    broken = dataclasses.replace(spec, producer=boom)
    import repro.api as api
    orig = api._resolve
    api._resolve = lambda name, kind: broken
    try:
        with pytest.raises(ValueError, match="producer exploded"):
            compute_artifact("table_7.3")
    finally:
        api._resolve = orig


def test_compute_batch_mixed_artifacts_and_order():
    result = compute_batch([BatchItem("table_7.3"),
                            BatchItem("figure_7.4")])
    assert result.ok and len(result) == 2
    assert result.lanes[0].payload["text"].startswith("Table 7.3")
    assert result.lanes[0].item.name == "table_7.3"
    assert result.lanes[1].item.name == "figure_7.4"
    assert result.stats["computed"] == 2
    assert result.stats["failed"] == 0


def test_compute_batch_kernel_fleet():
    pytest.importorskip("numpy")
    result = compute_batch(BatchRequest.kernels("os_mul", 8, lanes=6))
    assert result.ok and len(result) == 6
    for j, lane in enumerate(result.lanes):
        assert lane.payload["kernel"] == "os_mul"
        assert lane.payload["lane"] == j
        assert lane.payload["cycles"] > 0
    assert result.stats["lane_engine"]["lanes"] == 6


def test_compute_batch_accepts_strings_and_overrides(tmp_path):
    result = compute_batch(["table_7.3"], cache=True,
                           cache_dir=tmp_path)
    assert result.ok
    assert result.sweep is not None
    warm = compute_batch(["table_7.3"], cache=True, cache_dir=tmp_path)
    assert warm.lanes[0].status == "hit"
    assert warm.stats["hits"] == 1


def test_compute_batch_kernel_item_requires_k():
    with pytest.raises(ValueError, match="needs k="):
        compute_batch([BatchItem("os_mul", "kernel")])


def test_sweep_remains_byte_identical_through_batch(tmp_path):
    """The batch re-plumbing must not change what sweep returns."""
    from repro.harness.registry import get_spec

    result = sweep(only=["table_7.3"], cache=False)
    assert _stable(result.outcomes[0].payload) == \
        _stable(get_spec("table", "7.3").payload())


def test_pooled_sweep_output_equals_inline():
    """Long-lived workers carry model memos from task to task; that
    must not change a single payload.  The figures all price through
    the shared software kernel-cost memo (``model.costs``), and spawn
    workers start with it cold, so later tasks in a worker read what
    an earlier one stored."""
    only = ["figure_7.2", "figure_7.3", "figure_7.4", "table_7.3"]
    pooled = sweep(only=only, jobs=2, cache=False, mp_context="spawn")
    inline = sweep(only=only, jobs=1, cache=False)
    assert [o.status for o in pooled.outcomes] == ["computed"] * 4
    assert [o.artifact for o in pooled.outcomes] == \
        [o.artifact for o in inline.outcomes]
    for p, i in zip(pooled.outcomes, inline.outcomes):
        assert _stable(p.payload) == _stable(i.payload)


def test_unmatched_session_exit_raises():
    session = open_session()
    with pytest.raises(RuntimeError, match="matching __enter__"):
        session.__exit__(None, None, None)


def test_sessions_are_thread_isolated():
    """A session entered on one thread must not leak its model into
    another thread's pricing."""
    import threading

    from repro.model.system import shared_model

    hot = dataclasses.replace(CALIBRATION, ram_energy_scale=4.0)
    entered = threading.Event()
    release = threading.Event()

    def holder():
        with open_session(calibration=hot):
            entered.set()
            release.wait(timeout=10.0)

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert entered.wait(timeout=10.0)
        assert shared_model().cal is CALIBRATION
    finally:
        release.set()
        thread.join()
