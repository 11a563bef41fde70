"""Feature-partitioned propagation driver (Algorithm 6) with metering.

Algorithm 6 splits the feature dimension into ``Q`` chunks so that each
chunk's working set fits a core's cache and the chunks run in parallel.
This driver *chooses* ``Q`` for the modeled machine (Theorem 2) and
*prices* the pass under that schedule — the modeled communication and
computation of the run plus its simulated parallel time:

* computation parallelizes across cores (chunks are independent and equal-
  sized: "optimal load-balancing" per Section V-B);
* communication (DRAM streaming of CSR indices + the cache-missing feature
  gathers) parallelizes only up to the machine's bandwidth saturation.

On the host it runs the mean-aggregation kernel once over all columns:
the ``Q`` chunks are the modeled machine's parallel schedule, and
replaying them serially on the one thread that runs the pass costs
``Q`` copies and kernel calls for a bit-identical result (the chunk loop
is kept as the test oracle, ``tests/propagation/test_feature_prop.py``).

Forward and backward propagation have identical cost structure (Section
III-B), so the trainer charges this model once per direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from ..parallel.machine import MachineSpec
from .partition_model import BYTES_PER_FEATURE, g_comm, g_comp, theorem2_plan
from .spmm import MeanAggregator

__all__ = ["PropagationReport", "PartitionedPropagator"]


@dataclass(frozen=True)
class PropagationReport:
    """Modeled costs of one propagation pass over the subgraph."""

    n: int
    f: int
    q: int
    rounds: int
    comp_ops: float
    comm_bytes: float
    cache_bytes_per_round: float

    def simulated_time(self, machine: MachineSpec, *, cores: int) -> float:
        """Simulated duration on ``cores`` workers.

        Compute scales with ``cores``; streamed bytes scale with
        ``min(cores, dram_saturation_cores)`` (bandwidth ceiling). The
        blend reproduces the paper's ~25x feature-propagation speedup at
        40 cores.
        """
        if cores <= 0:
            raise ValueError("cores must be positive")
        # Aggregation is an irregular gather-accumulate: Algorithm 6 keeps
        # its working set cache-resident, but the gather stream still moves
        # through the shared memory system, so both terms are bounded by
        # the aggregate-bandwidth ceiling (the paper's feature propagation
        # tops out near 25x on 40 cores).
        eff_cores = min(float(cores), machine.dram_saturation_cores)
        comp_time = self.comp_ops * machine.cost_gather / eff_cores
        comm_time = self.comm_bytes * machine.dram_cost_per_byte / eff_cores
        return comp_time + comm_time


class PartitionedPropagator:
    """Mean aggregation priced as ``Q`` feature chunks (Algorithm 6).

    Drop-in replacement for :class:`~repro.propagation.spmm.MeanAggregator`
    (same ``forward``/``backward`` interface, bitwise-equal results: it
    runs the same kernel, once per pass) that additionally records a
    :class:`PropagationReport` per pass in :attr:`reports`.

    Parameters
    ----------
    graph:
        The sampled subgraph.
    machine:
        Platform spec: supplies the L2 capacity for choosing ``Q`` and the
        cost parameters for simulated timing.
    cores:
        Worker count ``C`` used in the ``Q = max(C, 8nf/S_cache)`` rule.
    backend:
        ``None`` (the default) runs the kernel layer's default backend; a
        kernel-registry SpMM backend name (``"scipy"`` / ``"numpy"``)
        pins it.
    """

    def __init__(
        self,
        graph: CSRGraph,
        machine: MachineSpec,
        *,
        cores: int,
        backend: str | None = None,
    ) -> None:
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.graph = graph
        self.machine = machine
        self.cores = cores
        self._agg = MeanAggregator(graph, backend=backend)
        self.reports: list[PropagationReport] = []

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def choose_q(self, f: int) -> int:
        """Theorem-2 partition count for feature size ``f`` (capped at f)."""
        plan = theorem2_plan(
            n=self.graph.num_vertices,
            d=self.graph.average_degree,
            f=f,
            cores=self.cores,
            cache_bytes=self.machine.l2_bytes,
        )
        return min(plan.q, max(f, 1))  # cannot split finer than one column

    def _run(self, x: np.ndarray, op, span_name: str) -> np.ndarray:
        n, f = x.shape
        with span(span_name) as sp:
            q = self.choose_q(f)
            out = op(x)
            d = self.graph.average_degree
            report = PropagationReport(
                n=n,
                f=f,
                q=q,
                rounds=-(-q // self.cores),
                comp_ops=g_comp(n, d, f),
                comm_bytes=g_comm(n, d, f, 1, q, 1.0),
                cache_bytes_per_round=BYTES_PER_FEATURE * n * f / q,
            )
            self.reports.append(report)
            if obs_enabled():
                sp.set(n=n, f=f, q=q)
                sp.add_sim_time(
                    report.simulated_time(self.machine, cores=self.cores)
                )
                obs_metrics.inc("prop.passes")
                obs_metrics.inc("prop.chunks", q)
        return out

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Mean-aggregate features; one kernel call, priced as Q chunks."""
        if features.shape[0] != self.num_vertices:
            raise ValueError("features rows must equal subgraph vertices")
        return self._run(features, self._agg.forward, "prop.forward")

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Adjoint pass: one kernel call, identical modeled cost."""
        if grad.shape[0] != self.num_vertices:
            raise ValueError("grad rows must equal subgraph vertices")
        return self._run(grad, self._agg.backward, "prop.backward")

    def total_simulated_time(self, *, cores: int | None = None) -> float:
        """Summed simulated time of every recorded pass."""
        c = cores if cores is not None else self.cores
        return sum(r.simulated_time(self.machine, cores=c) for r in self.reports)

    def reset_reports(self) -> None:
        """Drop accumulated propagation reports."""
        self.reports.clear()
