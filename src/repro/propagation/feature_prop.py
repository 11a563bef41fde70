"""Feature-partitioned propagation driver (Algorithm 6) with metering.

Algorithm 6 splits the feature dimension into ``Q`` chunks so that each
chunk's working set fits a core's cache and the chunks run in parallel.
``Q`` is a property of the modeled machine and of the core count it is
priced at (Theorem 2: ``Q = max(C, ceil(8nf / S_cache))``), so this driver
does not choose it: it records what a pass touched — ``n`` rows of width
``f`` aggregated over average degree ``d`` — and
:mod:`repro.experiments.repricing` chooses ``Q`` and prices the pass after
the run, at whatever core count it is asked for.

On the host it runs the mean-aggregation kernel once over all columns:
the ``Q`` chunks are the modeled machine's parallel schedule, and
replaying them serially on the one thread that runs the pass costs
``Q`` copies and kernel calls for a bit-identical result (the chunk loop
is kept as the test oracle, ``tests/propagation/test_feature_prop.py``).

Forward and backward propagation have identical cost structure (Section
III-B), so each direction records one report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from .spmm import MeanAggregator

__all__ = ["PropagationReport", "PartitionedPropagator"]


@dataclass(frozen=True)
class PropagationReport:
    """Counters of one propagation pass: ``n`` rows of width ``f`` over a
    subgraph of average degree ``d``."""

    n: int
    f: int
    d: float


class PartitionedPropagator:
    """Mean aggregation metered per pass (Algorithm 6's counters).

    Drop-in replacement for :class:`~repro.propagation.spmm.MeanAggregator`
    (same ``forward``/``backward`` interface, bitwise-equal results: it
    runs the same kernel, once per pass) that additionally records a
    :class:`PropagationReport` per pass in :attr:`reports`.

    Parameters
    ----------
    graph:
        The sampled subgraph.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self._agg = MeanAggregator(graph)
        self.reports: list[PropagationReport] = []

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def _run(self, x: np.ndarray, op, span_name: str) -> np.ndarray:
        n, f = x.shape
        with span(span_name) as sp:
            out = op(x)
            self.reports.append(
                PropagationReport(n=n, f=f, d=self.graph.average_degree)
            )
            if obs_enabled():
                sp.set(n=n, f=f)
                obs_metrics.inc("prop.passes")
        return out

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Mean-aggregate features; one kernel call, one report."""
        if features.shape[0] != self.num_vertices:
            raise ValueError("features rows must equal subgraph vertices")
        return self._run(features, self._agg.forward, "prop.forward")

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Adjoint pass: one kernel call, identical counters."""
        if grad.shape[0] != self.num_vertices:
            raise ValueError("grad rows must equal subgraph vertices")
        return self._run(grad, self._agg.backward, "prop.backward")
