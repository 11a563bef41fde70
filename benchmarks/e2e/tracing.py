"""Spans recorded from outside the program.

The benchmark times calls into public entry points; nothing in
``src/repro`` is edited. ``Recorder.install`` swaps a wrapper over each
entry point in ``TARGETS`` (a module attribute or a class method), so a
call made from anywhere inside the program opens a span under whatever
span is open at the time. Spans stay in memory — a list append per
boundary — and are written out once, when the run ends.

A span is ``[name, start, end, parent, stage repeat]``. A layer's self
time is its span's duration minus the part its direct children cover.
A wrapper whose name is already open (``PartitionedPropagator.forward``
calling ``MeanAggregator.forward``, ``gemm_accumulate`` calling
``gemm``) calls straight through, so a name's durations never overlap
and can be summed.

With ``enabled=False`` the recorder only times stages: the untraced run
goes through the same harness code with no wrapper installed.
"""

from __future__ import annotations

import importlib
import json
import threading
from time import perf_counter

# (module, attribute path, span name). Span names are "<layer>.<what>";
# the layer is the repo module the time is charged to.
TARGETS = [
    ("repro.sampling.scheduler", "SubgraphPool.get", "sampling.pool_get"),
    ("repro.sampling.pipeline", "PrefetchingSubgraphPool.get", "sampling.pool_get"),
    # The trainer binds norm_coefficients by name, so wrap its binding.
    ("repro.train.trainer", "norm_coefficients", "sampling.norm_setup"),
    ("repro.propagation.feature_prop", "PartitionedPropagator.__init__", "propagation.init"),
    ("repro.propagation.feature_prop", "PartitionedPropagator.forward", "propagation.forward"),
    ("repro.propagation.feature_prop", "PartitionedPropagator.backward", "propagation.backward"),
    ("repro.propagation.spmm", "MeanAggregator.forward", "propagation.forward"),
    ("repro.propagation.spmm", "MeanAggregator.backward", "propagation.backward"),
    ("repro.kernels.ops", "gemm", "kernels.gemm"),
    ("repro.kernels.ops", "gemm_accumulate", "kernels.gemm"),
    ("repro.kernels.ops", "spmm", "kernels.spmm"),
    ("repro.kernels.ops", "spmm_adjoint", "kernels.spmm"),
    ("repro.kernels.ops", "relu", "kernels.elementwise"),
    ("repro.kernels.ops", "relu_backward", "kernels.elementwise"),
    ("repro.kernels.ops", "add_bias", "kernels.elementwise"),
    ("repro.kernels.ops", "gather_segment_sum", "kernels.elementwise"),
    ("repro.kernels.ops", "scatter_add_rows", "kernels.elementwise"),
    # The reference dtype policy (the default) runs the layers' own
    # relu/relu_grad, bound by name in nn.layers, not kernels.ops.relu.
    ("repro.nn.layers", "relu", "kernels.elementwise"),
    ("repro.nn.layers", "relu_grad", "kernels.elementwise"),
    ("repro.nn.network", "GCN.forward", "nn.forward"),
    ("repro.nn.network", "GCN.embeddings", "nn.forward"),
    ("repro.nn.network", "GCN.backward", "nn.backward"),
    ("repro.nn.loss", "SoftmaxCrossEntropy.forward", "nn.loss"),
    ("repro.nn.loss", "SoftmaxCrossEntropy.backward", "nn.loss"),
    ("repro.nn.loss", "SigmoidCrossEntropy.forward", "nn.loss"),
    ("repro.nn.loss", "SigmoidCrossEntropy.backward", "nn.loss"),
    ("repro.nn.optim", "Adam.step", "nn.optimizer_step"),
    ("repro.serving.index", "ClusterIndex.search", "serving.index.search"),
    ("repro.serving.index", "BruteForceIndex.search", "serving.index.search"),
    ("repro.serving.cache", "GenerationalCache.get", "serving.cache.get_put"),
    ("repro.serving.cache", "GenerationalCache.put", "serving.cache.get_put"),
    ("repro.serving.router", "CentroidRouter.route", "serving.router.route"),
    ("repro.serving.cluster", "ShardedIndex.replace_shard", "serving.upsert.apply"),
]


class Timing:
    """What ``Recorder.span``/``stage`` hand back: wall seconds, and for a
    traced stage its per-name totals and kernel counters."""

    __slots__ = ("seconds", "names", "kernels")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.names: dict[str, list[float]] = {}  # name -> [count, total, self]
        self.kernels: dict[str, float] = {}

    def total(self, name: str) -> float:
        return self.names.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.names.get(name, (0, 0.0, 0.0))[2]


class _Span:
    __slots__ = ("rec", "name", "timing", "idx", "t0")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self.rec = rec
        self.name = name
        self.timing = Timing()

    def __enter__(self) -> Timing:
        self.idx = self.rec._begin(self.name) if self.rec.enabled else -1
        self.t0 = perf_counter()
        return self.timing

    def __exit__(self, *exc_info) -> None:
        self.timing.seconds = perf_counter() - self.t0
        if self.idx >= 0:
            self.rec._end(self.idx)


class _Stage(_Span):
    """A root span: one repeat of one timed stage of the pipeline."""

    __slots__ = ("capture", "counters")

    def __enter__(self) -> Timing:
        rec = self.rec
        if rec.enabled:
            from repro.kernels import accounting

            rec.repeat += 1
            rec.repeats.append(self.name)
            self.capture = accounting.capture()
            self.counters = self.capture.__enter__()
        return super().__enter__()

    def __exit__(self, *exc_info) -> None:
        super().__exit__(*exc_info)
        if self.idx >= 0:
            self.capture.__exit__(*exc_info)
            self.timing.kernels = self.counters.snapshot()
            self.timing.names = self.rec._summarise(self.idx)


class Recorder:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, repeat]
        self.repeats: list[str] = []  # stage name of each repeat id
        self.repeat = -1
        self._stack: list[int] = []
        self._open: set[int] = set()
        self._installed: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    # -- harness side --------------------------------------------------
    def span(self, name: str) -> _Span:
        """Time a block; records a span too when tracing."""
        return _Span(self, name)

    def stage(self, name: str) -> _Stage:
        """Time one repeat of a pipeline stage (a root span when tracing)."""
        return _Stage(self, name)

    # -- span store ----------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, name: str) -> int:
        nid = self._name_id(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self._open.add(nid)
        self.spans.append([nid, perf_counter(), 0.0, parent, self.repeat])
        return idx

    def _end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        self._open.discard(span[0])

    def _summarise(self, root: int) -> dict[str, list[float]]:
        """Per-name [count, total, self] over ``root`` and its descendants
        (they are the spans recorded since ``root`` began)."""
        spans = self.spans
        child_time = [0.0] * (len(spans) - root)
        for i in range(len(spans) - 1, root, -1):
            _, start, end, parent, _ = spans[i]
            child_time[parent - root] += end - start
        out: dict[str, list[float]] = {}
        for i in range(root, len(spans)):
            nid, start, end, _, _ = spans[i]
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i - root]
        return out

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        open_names, main = self._open, self._thread

        def traced(*args, **kwargs):
            # Same name already open, or the prefetch producer's thread:
            # call through (the span stack belongs to the main thread).
            if nid in open_names or threading.get_ident() != main:
                return fn(*args, **kwargs)
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if not self.enabled or self._installed:
            return
        for module, path, name in TARGETS:
            owner = importlib.import_module(module)
            *holders, attr = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path) -> None:
        doc = {
            "clock": "wall (perf_counter seconds)",
            "span": ["name", "start", "end", "parent", "repeat"],
            "names": self.names,
            "repeats": self.repeats,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
