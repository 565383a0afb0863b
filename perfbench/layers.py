"""Outside-in layer trace for the benchmark's traced runs.

A :class:`Tracer` wraps the public functions of each layer of the
reproduction -- from the benchmark's side, without touching the
program -- and records one span per call: layer name, start, end,
parent span and pid.  Self time (a span's duration minus the spans
directly nested in it) is summed per layer as the run goes, so the
layer self times plus the root span's own self time (``other``) add up
to the root span's duration exactly.

Layers called hundreds of thousands of times (``HOT``: the GF(2^m)
value arithmetic and the Pete interpreter) still count towards self
time call by call, but reach the written snapshot as one aggregated
span per parent (``labels.calls`` = how many calls it stands for), so
the ``repro.obs.v1`` snapshot stays small enough for
``python -m repro.obs report --spans`` to render.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

#: Layers aggregated per parent in the written snapshot.
HOT = frozenset({"gf2m", "pete.run"})

#: Artifacts whose ``ArtifactSpec.payload`` self time is reported on
#: its own (slug -> metric layer); every other artifact is ``rest``.
NAMED_ARTIFACTS = ("table_7_2", "figure_7_12", "figure_7_14",
                   "table_7_1", "figure_7_1")

#: (layer, module, function names) wrapped at module level.
FUNCTION_LAYERS = (
    ("billie_driver", "repro.model.billie_driver",
     ("run_sliding_window", "run_twin", "run_montgomery_ladder")),
    ("gf2m", "repro.fields.inversion", ("_poly_mul", "_poly_sqr")),
    ("gf2m", "repro.accel.digit_serial",
     ("digit_serial_mul", "hardwired_square")),
    ("opcount", "repro.model.opcount",
     ("ecdsa_opcounts", "scalar_mult_point_ops")),
    ("monte_driver", "repro.model.monte_driver",
     ("run_sliding_window", "run_point_operation_pair")),
    ("analysis", "repro.analysis.verify", ("analyze_spec",)),
    ("keys", "repro.sweep.keys", ("artifact_key", "code_graph")),
)


class _Frame:
    __slots__ = ("layer", "t0", "child_s", "span", "hot")

    def __init__(self, layer: str, t0: float, span):
        self.layer = layer
        self.t0 = t0
        self.child_s = 0.0
        self.span = span
        self.hot: dict[str, list] | None = None


class Tracer:
    """Span recorder with per-layer self time, calls and counts.

    Finished spans go to ``self.telemetry``, a
    :class:`repro.obs.core.Telemetry` built directly, so the program's
    own instrumentation stays off.
    """

    def __init__(self, trace_id: str, parent_id: str | None = None):
        from repro.obs.core import Telemetry

        self.telemetry = Telemetry(trace_id)
        self.parent_id = parent_id
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._epoch = time.time() - time.perf_counter()

    # -- spans ------------------------------------------------------------

    def enter(self, layer: str) -> _Frame:
        span = None
        if layer not in HOT:
            owner = self._owner()
            span = self.telemetry.begin(
                layer, parent=owner.span.span_id if owner is not None
                else self.parent_id)
        frame = _Frame(layer, time.perf_counter(), span)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame, status: str = "ok") -> None:
        dur = time.perf_counter() - frame.t0
        stack = self._stack
        stack.pop()
        layer = frame.layer
        self.self_s[layer] += dur - frame.child_s
        self.total_s[layer] += dur
        self.calls[layer] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += dur
        if layer in HOT:
            owner = self._owner()
            if owner is not None:
                if owner.hot is None:
                    owner.hot = {}
                agg = owner.hot.get(layer)
                if agg is None:
                    owner.hot[layer] = [1, dur, frame.t0]
                else:
                    agg[0] += 1
                    agg[1] += dur
            return
        frame.span.finish(status)
        for name, (n, total, first) in (frame.hot or {}).items():
            self.telemetry.emit(name, total, parent=frame.span.span_id,
                                start_s=self._epoch + first,
                                calls=str(n), aggregated="1")

    def _owner(self) -> _Frame | None:
        for frame in reversed(self._stack):
            if frame.span is not None:
                return frame
        return None

    @contextlib.contextmanager
    def span(self, layer: str):
        """The benchmark's own spans, around its calls into a layer."""
        frame = self.enter(layer)
        try:
            yield
        except BaseException:
            self.exit(frame, "error")
            raise
        self.exit(frame)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer, fn, pre=None, post=None):
        """``fn`` timed as ``layer`` (a name, or a function of the call's
        positional arguments giving one).  ``post(args, result, token)``
        returns ``{count: amount}`` to add, ``token`` being
        ``pre(args)`` taken before the call."""
        enter, exit_ = self.enter, self.exit
        counts = self.counts
        pick = layer if callable(layer) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            frame = enter(pick(args) if pick is not None else layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(frame, "error")
                raise
            exit_(frame)
            if post is not None:
                for key, amount in post(args, result, token).items():
                    counts[key] += amount
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced


def _import_all() -> None:
    """Import every ``repro`` module, so that every alias of a wrapped
    function (``from x import f``) is in ``sys.modules`` to patch."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _patch_function(module_name: str, attr: str, wrapped_of) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapped = wrapped_of(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)


def _artifact_layer(args) -> str:
    slug = args[0].slug
    return f"artifact.{slug}" if slug in NAMED_ARTIFACTS \
        else "artifact.rest"


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions with ``tracer``."""
    _import_all()
    from repro.harness.registry import ArtifactSpec
    from repro.kernels.runner import KernelRunner
    from repro.pete.cpu import Pete
    from repro.pete.lanes import LaneEngine
    from repro.sweep.cache import ResultCache

    for layer, module_name, names in FUNCTION_LAYERS:
        for attr in names:
            _patch_function(module_name, attr,
                            functools.partial(tracer.wrap, layer))

    def fetches(args, result, misses_before):
        grew = cache_study.cache_info().misses > misses_before
        return {"icache_model.fetches": result.accesses if grew else 0}

    import repro.model.icache_model as icache_model

    cache_study = icache_model.cache_study
    _patch_function("repro.model.icache_model", "cache_study",
                    lambda fn: tracer.wrap(
                        "icache_model", fn,
                        pre=lambda args: cache_study.cache_info().misses,
                        post=fetches))

    def method(cls, attr, layer, pre=None, post=None):
        setattr(cls, attr, tracer.wrap(layer, getattr(cls, attr),
                                       pre=pre, post=post))

    method(ArtifactSpec, "payload", _artifact_layer)
    method(KernelRunner, "measure", "kernels.measure")
    method(KernelRunner, "measure_batch", "kernels.measure_batch")
    method(KernelRunner, "prepare_lanes", "kernels.prepare_lanes")
    method(LaneEngine, "run", "lanes.run")
    method(Pete, "run", "pete.run",
           pre=lambda args: args[0].stats.instructions,
           post=lambda args, stats, before: {
               "pete.insns": stats.instructions - before})
    method(ResultCache, "get", "cache.read",
           post=lambda args, payload, _: {
               "cache.hits" if payload is not None else "cache.misses": 1})
    method(ResultCache, "put", "cache.write",
           post=lambda args, result, _: {"cache.writes": 1})
