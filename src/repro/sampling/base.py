"""Sampler interfaces and the sampled-subgraph container."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from ..parallel.costmodel import CostCounter

__all__ = ["ENGINES", "SampledSubgraph", "GraphSampler"]

#: Valid values of every sampler's ``engine=`` argument.
ENGINES = ("fast", "reference")


@dataclass(frozen=True)
class SampledSubgraph:
    """Output of one sampler run: an induced subgraph + id mapping.

    Attributes
    ----------
    graph:
        The induced subgraph with vertices relabeled ``0..k-1``.
    vertex_map:
        ``vertex_map[i]`` is the original-graph id of subgraph vertex ``i``
        (sorted ascending, unique).
    stats:
        Optional sampler-specific operation statistics (used by the cost
        model); plain dict so samplers can report what they like.
    """

    graph: CSRGraph
    vertex_map: np.ndarray
    stats: dict[str, float] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.vertex_map.shape[0] != self.graph.num_vertices:
            raise ValueError("vertex_map length must equal subgraph size")

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices


class GraphSampler:
    """Base class: samplers produce induced subgraphs of a fixed graph.

    :meth:`sample` is a template. It opens the ``sampler.<tag>`` span,
    dispatches on ``engine`` to :meth:`_draw_fast` / :meth:`_draw_reference`,
    counts ``sampler.subgraphs``, induces the subgraph on the drawn
    vertices and assembles ``stats``. A family supplies the draw only::

        class MySampler(GraphSampler):
            tag = "mine"

            def _draw(self, rng):
                return vertices, {}, None

    A draw returns ``(vertices, stats, counter)``: the visited vertex ids
    (duplicates allowed), the family's own stats, and the
    :class:`~repro.parallel.costmodel.CostCounter` it metered its work in
    — or ``None`` when it does not meter, in which case the pool prices
    it by ``distribution_work`` / subgraph size. A family with one
    execution strategy overrides :meth:`_draw`; one with a vectorized
    engine and a scalar oracle overrides both engine hooks.

    Draws must be deterministic given the supplied generator and keep no
    per-draw state on ``self``, so training runs are reproducible and one
    sampler can serve several threads or be replayed across processes
    (Algorithm 5 launches many independent instances).
    """

    #: Span suffix: each draw is recorded as one ``sampler.<tag>`` span.
    tag = "custom"

    def __init__(
        self, graph: CSRGraph, *, engine: str = "fast", vector_lanes: int = 8
    ) -> None:
        if graph.num_vertices == 0:
            raise ValueError("cannot sample from an empty graph")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.graph = graph
        self.engine = engine
        self.vector_lanes = vector_lanes
        self._span = f"sampler.{self.tag}"

    def _require_min_degree(self) -> None:
        """Families that step to a random neighbor cannot leave an
        isolated vertex."""
        if np.any(self.graph.degrees == 0):
            raise ValueError(
                f"{self.tag} sampling requires min degree >= 1; "
                "preprocess with ensure_min_degree"
            )

    def _draw(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, dict[str, float], CostCounter | None]:
        """Visit vertices: ``(vertices, family stats, counter or None)``."""
        raise NotImplementedError

    def _draw_fast(self, rng: np.random.Generator):
        """``engine="fast"`` draw; defaults to :meth:`_draw`."""
        return self._draw(rng)

    def _draw_reference(self, rng: np.random.Generator):
        """``engine="reference"`` draw; defaults to :meth:`_draw`."""
        return self._draw(rng)

    def sample(self, rng: np.random.Generator) -> SampledSubgraph:
        """Draw one subgraph."""
        with span(self._span) as sp:
            draw = self._draw_fast if self.engine == "fast" else self._draw_reference
            vertices, stats, counter = draw(rng)
            if obs_enabled():
                obs_metrics.inc("sampler.subgraphs")
                sp.set(engine=self.engine, **stats)
            subgraph, vertex_map = self.graph.induced_subgraph(vertices)
            stats["unique_vertices"] = float(vertex_map.shape[0])
            if counter is not None:
                # Probe-model keys (zero unless the family probes) keep
                # every metered stats dict priceable by
                # simulated_sampler_time.
                stats.setdefault("pops", 0.0)
                stats.setdefault("probes", 0.0)
                stats["rand_ops"] = counter.rand_ops
                stats["mem_ops"] = counter.mem_ops
                stats["private_mem_ops"] = counter.private_mem_ops
                stats["vector_elements"] = counter.vector_elements
                stats["vector_chunks"] = counter.vector_chunks
        return SampledSubgraph(graph=subgraph, vertex_map=vertex_map, stats=stats)

    def sample_many(
        self, count: int, rng: np.random.Generator
    ) -> list[SampledSubgraph]:
        """Draw ``count`` independent subgraphs (convenience)."""
        return [self.sample(rng) for _ in range(count)]
