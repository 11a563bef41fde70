"""The sampler zoo: one factory over every subgraph-sampler family.

Four families share the :class:`~repro.sampling.base.GraphSampler`
interface and therefore compose identically with
:class:`~repro.sampling.scheduler.SubgraphPool`, ``TrainConfig``
and the bench CLIs:

========== ============================================== ==============
family     sampler                                        normalization
========== ============================================== ==============
dashboard  :class:`~repro.sampling.dashboard.DashboardFrontierSampler` empirical
rw         :class:`~repro.sampling.rw.RandomWalkBatchSampler`          empirical
edge       :class:`~repro.sampling.edge.DegreeWeightedEdgeSampler`     closed form
edge-indp  :class:`~repro.sampling.edge_indp.IndependentEdgeSampler`   closed form
========== ==============================================

:func:`make_sampler` maps a shared vertex ``budget`` onto each family's
native knob — random walks get ``budget // (walk_depth + 1)`` roots (so
total visits match the budget), the edge samplers get ``budget // 2``
draws / expected edges (two endpoints per edge) — keeping the four
families comparable at a fixed workload size.
:func:`norm_coefficients` returns each sampler's GraphSAINT
normalization coefficients, closed-form where exact formulas exist and
empirical (pre-sampling frequency counts) otherwise.
"""

from __future__ import annotations

from ..graphs.csr import CSRGraph
from .base import GraphSampler
from .dashboard import DashboardFrontierSampler
from .edge import DegreeWeightedEdgeSampler
from .edge_indp import IndependentEdgeSampler
from .norm import (
    NormCoefficients,
    edge_draw_coefficients,
    empirical_coefficients,
    independent_edge_coefficients,
)
from .rw import RandomWalkBatchSampler

__all__ = ["FAMILIES", "DEFAULT_WALK_DEPTH", "make_sampler", "norm_coefficients"]

#: Every sampler family `make_sampler` accepts, in bench display order.
FAMILIES = ("dashboard", "rw", "edge", "edge-indp")

#: Default random-walk depth ``h`` (the follow-up paper's Reddit/PPI runs
#: use short walks of depth 2-4).
DEFAULT_WALK_DEPTH = 3


def make_sampler(
    family: str,
    graph: CSRGraph,
    *,
    budget: int,
    frontier_size: int | None = None,
    engine: str = "fast",
    walk_depth: int = DEFAULT_WALK_DEPTH,
) -> GraphSampler:
    """Build one sampler of the requested family at a shared budget.

    Parameters
    ----------
    family:
        One of :data:`FAMILIES`.
    graph:
        Graph to sample (min degree >= 1 for dashboard/rw).
    budget:
        Target vertex-visit budget; translated to each family's native
        parameter (see module docstring).
    frontier_size:
        Dashboard frontier size ``m``; defaults to ``max(budget // 5, 1)``
        (the ratio of the ``TrainConfig`` defaults). Ignored by the
        other families.
    engine:
        ``"fast"`` or ``"reference"``, forwarded to every family.
    walk_depth:
        Random-walk depth ``h`` (rw only).

    Every other knob keeps its family's default; a sampler that needs
    one (the ``eta`` / degree-cap sweeps) is built directly.
    """
    if family == "dashboard":
        m = max(budget // 5, 1) if frontier_size is None else frontier_size
        return DashboardFrontierSampler(
            graph,
            frontier_size=min(m, budget),
            budget=budget,
            engine=engine,
        )
    if family == "rw":
        return RandomWalkBatchSampler(
            graph,
            num_roots=max(1, budget // (walk_depth + 1)),
            walk_depth=walk_depth,
            engine=engine,
        )
    if family == "edge":
        return DegreeWeightedEdgeSampler(
            graph,
            num_draws=max(1, budget // 2),
            engine=engine,
        )
    if family == "edge-indp":
        return IndependentEdgeSampler(
            graph,
            edge_budget=max(1, budget // 2),
            engine=engine,
        )
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def norm_coefficients(
    sampler: GraphSampler,
    *,
    num_subgraphs: int = 32,
    seed: int = 0,
) -> NormCoefficients:
    """GraphSAINT normalization coefficients for any sampler.

    Dispatches to the exact closed forms for the two edge families
    (their per-edge probabilities are known analytically) and to
    :func:`~repro.sampling.norm.empirical_coefficients` pre-sampling for
    everything else — including user-supplied custom samplers, which
    only need the base :class:`~repro.sampling.base.GraphSampler`
    contract. ``num_subgraphs``/``seed`` parameterize the empirical
    pre-sampling pass and are ignored by the closed forms.
    """
    if isinstance(sampler, IndependentEdgeSampler):
        return independent_edge_coefficients(sampler.graph, sampler.edge_budget)
    if isinstance(sampler, DegreeWeightedEdgeSampler):
        return edge_draw_coefficients(sampler.graph, sampler.num_draws)
    return empirical_coefficients(sampler, num_subgraphs=num_subgraphs, seed=seed)
