"""Dashboard-based frontier sampler (Algorithms 3 & 4, Section IV-B).

The serial frontier sampler pays O(m) per pop to rebuild the degree
distribution. The paper's Dashboard replaces that with an array-probing
scheme that supports O(1)-expected-time pops and incremental updates:

* ``DB`` — a table of ``ceil(eta * m * d_bar)`` entries. A frontier vertex
  ``v`` owns ``deg(v)`` *contiguous* entries, so probing DB uniformly at
  random and keeping the first valid hit realizes the degree-proportional
  pop distribution. Three slots per entry: the vertex id, an offset back
  to the vertex's first entry (the first entry stores ``-deg`` so the
  popper can recover the degree), and the vertex's insertion index ``k``.
* ``IA`` — an index array mapping insertion index ``k`` to the DB start
  position and an alive flag, so cleanup can compact DB without scanning
  all of it.

Entries of popped ("historical") vertices are invalidated in place rather
than freed; when an append no longer fits, a cleanup pass compacts the
alive entries. The enlargement factor ``eta > 1`` keeps the expected valid
ratio at ``1/eta`` so probing succeeds quickly and cleanups are rare
(``(n - m) / ((eta - 1) m)`` times per subgraph).

Execution engines
-----------------

The sampler dispatches between two engines that draw from the same pop
distribution (verified statistically in the test suite):

* ``engine="reference"`` — the scalar Algorithm-3 loop: one probe scan,
  one neighbor draw and one append per pop. This is the correctness
  oracle; it is deliberately simple and slow.
* ``engine="fast"`` (default) — round-based batched execution mirroring
  Algorithm 4's ``para_POP_FRONTIER``: probe indices are drawn in large
  vectorized blocks, valid hits and intra-round duplicate pops are
  resolved with numpy masking (a probe landing on a vertex already popped
  this round counts as a miss, exactly as it would against invalidated
  entries in the serial order), replacement neighbors are drawn through
  :meth:`CSRGraph.random_neighbors` in one batch, and invalidations plus
  appends are applied as whole-round slab writes. A round is a short,
  fixed sequence of array operations whatever its size: the first probe
  of each occupant comes from one reversed scatter, and the appended slab
  is a contiguous slice. Like the paper's parallel pops, the vertices
  appended within a round only become probe-able in the next round, so
  the round size is bounded to a small fraction of the frontier:
  ``max(1, m // 4)`` pops.

Operation metering: every probe, slot write, cleanup move and IA touch is
tallied in a :class:`~repro.parallel.costmodel.CostCounter`; per-vertex
entry updates are recorded as vector chunks (the paper parallelizes them
with AVX, Section IV-C), so the cost model can convert one serial run into
simulated parallel time. Both engines meter identically: probes count the
draws actually examined, ``rand_ops`` counts the uniform indices actually
drawn (probe draws are buffered and the unused tail carried across pops,
so the meter matches the RNG traffic), and entry updates are charged one
vector chunk per :data:`~repro.parallel.costmodel.VECTOR_LANES` elements
per vertex.

The ``max_entries_per_vertex`` knob implements the Amazon side-note of
Section VI-C2: on heavily-skewed graphs a hub vertex may otherwise own tens
of thousands of DB entries, making every subgraph contain the same hubs.
Capping its entries bounds its pop probability (the replacement neighbor is
still uniform over the full neighbor list).
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph, _ranges_within
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..parallel.costmodel import VECTOR_LANES, CostCounter
from .base import ENGINES, GraphSampler

__all__ = ["ENGINES", "Dashboard", "DashboardFrontierSampler"]

INV = -1  # INValid marker for DB slot 0 and IA entries
_PROBE_BATCH = 16  # reference-engine probe draws per buffer refill
_FAST_MIN_BLOCK = 64  # smallest vectorized probe block of the fast engine


class Dashboard:
    """The DB + IA pair with probe/pop/add/cleanup operations.

    Parameters
    ----------
    capacity:
        Total DB entries (``ceil(eta * m * d_bar)`` in the sampler).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # DB slots: paper packs them as one R^{3 x capacity} table (INT32 +
        # 2x INT16); separate arrays are the numpy idiom with identical
        # semantics. modeled_bytes reports the paper's packed footprint.
        self.db_vertex = np.full(capacity, INV, dtype=np.int64)
        self.db_offset = np.zeros(capacity, dtype=np.int64)
        self.db_index = np.full(capacity, INV, dtype=np.int64)
        # IA slots (capacity + 1 entries in the paper; the "+1 running used
        # count" is held in self.used instead of a sentinel row).
        self.ia_start = np.full(capacity + 1, INV, dtype=np.int64)
        self.ia_alive = np.zeros(capacity + 1, dtype=bool)
        self.used = 0  # DB entries consumed (current + historical)
        self.num_added = 0  # vertices ever added since last cleanup
        self.alive_entries = 0  # DB entries owned by current frontier
        self.alive_count = 0  # current frontier occupants (alive IA flags)
        self.counter = CostCounter()
        self.num_cleanups = 0
        self.num_grows = 0
        self.num_pops = 0
        self.num_probes = 0
        # Buffered uniform probe draws shared by pop()/pop_many(): the
        # unused tail is carried across pops so metered rand_ops equals the
        # indices actually drawn (invalidated only when capacity changes).
        self._probe_buf = np.empty(0, dtype=np.int64)
        self._probe_pos = 0

    # ------------------------------------------------------------------
    @property
    def valid_ratio(self) -> float:
        """Fraction of all DB entries owned by current frontier vertices."""
        return self.alive_entries / self.capacity

    @property
    def modeled_bytes(self) -> int:
        """Paper-faithful footprint: INT32 + 2x INT16 per DB entry."""
        return self.capacity * (4 + 2 + 2)

    def free_entries(self) -> int:
        """Unused DB entries remaining before a cleanup is required."""
        return self.capacity - self.used

    def _refill_probes(self, rng: np.random.Generator, size: int) -> None:
        """Draw ``size`` fresh uniform DB indices into the probe buffer.

        Any unconsumed tail is kept ahead of the fresh draws — carried
        draws are examined (and metered) before new ones, in draw order.
        """
        fresh = rng.integers(0, self.capacity, size=size)
        tail = self._probe_buf[self._probe_pos :]
        self._probe_buf = np.concatenate([tail, fresh]) if tail.size else fresh
        self._probe_pos = 0
        self.counter.rand_ops += size

    def _available_probes(self) -> np.ndarray:
        return self._probe_buf[self._probe_pos :]

    # ------------------------------------------------------------------
    def add(self, vertex: int, num_entries: int) -> None:
        """Append ``num_entries`` contiguous entries for ``vertex``.

        Caller must ensure the entries fit (run :meth:`cleanup` first when
        they do not — mirroring lines 20-22 of Algorithm 3).
        """
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        if num_entries > self.free_entries():
            raise RuntimeError(
                f"dashboard overflow: need {num_entries}, have {self.free_entries()} "
                "(run cleanup first or increase eta)"
            )
        start = self.used
        end = start + num_entries
        k = self.num_added
        self.db_vertex[start:end] = vertex
        # First entry stores -deg; the rest store their offset back to it.
        self.db_offset[start] = -num_entries
        if num_entries > 1:
            self.db_offset[start + 1 : end] = np.arange(1, num_entries)
        self.db_index[start:end] = k
        self.ia_start[k] = start
        self.ia_alive[k] = True
        self.used = end
        self.num_added = k + 1
        self.alive_entries += num_entries
        self.alive_count += 1
        # 3 slot-arrays written over num_entries entries, vectorizable.
        for _ in range(3):
            self.counter.count_vector_op(num_entries)
        self.counter.private_mem_ops += 2  # IA bookkeeping

    def add_many(self, vertices: np.ndarray, counts: np.ndarray) -> None:
        """Append entries for a batch of vertices in one slab write.

        Semantically equal to calling :meth:`add` once per vertex in order
        (same DB/IA layout, same metered totals), but the appended entries
        are the contiguous range ``[used, used + total)``, so the three
        slot arrays are written as slices from one repeat of a ``(3, n)``
        block instead of a Python loop. Duplicated vertex ids are allowed
        — each occurrence gets its own insertion index, exactly as
        repeated :meth:`add` calls would.
        """
        vertices = np.asarray(vertices)
        counts = np.asarray(counts, dtype=np.int64)
        if vertices.shape != counts.shape or vertices.ndim != 1:
            raise ValueError("vertices and counts must be equal-length 1-D")
        n = vertices.shape[0]
        if n == 0:
            return
        if counts.min() <= 0:
            raise ValueError("num_entries must be positive")
        ends = counts.cumsum()
        total = int(ends[-1])
        if total > self.free_entries():
            raise RuntimeError(
                f"dashboard overflow: need {total}, have {self.free_entries()} "
                "(run cleanup first or increase eta)"
            )
        used, k0 = self.used, self.num_added
        # Row 0: each block's start within the slab; 1: vertex; 2: k.
        block = np.empty((3, n), dtype=np.int64)
        np.subtract(ends, counts, out=block[0])
        block[1] = vertices
        block[2] = np.arange(k0, k0 + n)
        expanded = block.repeat(counts, axis=1)
        slab = slice(used, used + total)
        self.db_vertex[slab] = expanded[1]
        # Head slot of each block stores -deg, the rest their back-offset
        # (head written second, overwriting the zero offset).
        self.db_offset[slab] = np.arange(total) - expanded[0]
        self.db_offset[used + block[0]] = -counts
        self.db_index[slab] = expanded[2]
        self.ia_start[k0 : k0 + n] = used + block[0]
        self.ia_alive[k0 : k0 + n] = True
        self.used += total
        self.num_added += n
        self.alive_entries += total
        self.alive_count += n
        # Identical tallies to per-vertex add(): 3 slot arrays, chunked at
        # per-vertex granularity (a degree-3 vertex still under-fills its
        # vector lanes even inside a batch).
        chunks = int((-(-counts // VECTOR_LANES)).sum())
        self.counter.vector_elements += 3 * total
        self.counter.vector_chunks += 3 * chunks
        self.counter.private_mem_ops += 2 * n

    def pop(self, rng: np.random.Generator) -> int:
        """Degree-proportional pop via uniform probing (para_POP_FRONTIER).

        Scans buffered uniform indices over the whole DB until one lands
        on a valid entry, then invalidates the popped vertex's entries and
        clears its IA alive flag. Unused draws are carried to the next
        pop, so ``counter.rand_ops`` counts the indices actually drawn.
        """
        if self.alive_entries == 0:
            raise RuntimeError("pop from an empty dashboard")
        hit = -1
        while hit < 0:
            if self._probe_pos >= self._probe_buf.shape[0]:
                self._refill_probes(rng, _PROBE_BATCH)
            probes = self._available_probes()
            valid = self.db_vertex[probes] != INV
            first = int(np.argmax(valid))
            if valid[first]:
                hit = int(probes[first])
                consumed = first + 1
            else:
                consumed = probes.shape[0]
            self._probe_pos += consumed
            self.num_probes += consumed
            self.counter.mem_ops += consumed  # DB slot-0 reads
        vertex = int(self.db_vertex[hit])
        offset = int(self.db_offset[hit])
        start = hit - offset if offset > 0 else hit
        deg = -int(self.db_offset[start])
        self.db_vertex[start : start + deg] = INV
        self.ia_alive[self.db_index[hit]] = False
        self.alive_entries -= deg
        self.alive_count -= 1
        self.num_pops += 1
        self.counter.count_vector_op(deg)  # invalidation
        self.counter.private_mem_ops += 4  # offset/deg/IA reads + flag write
        return vertex

    def pop_many(self, rng: np.random.Generator, max_pops: int) -> np.ndarray:
        """Pop up to ``max_pops`` distinct frontier occupants in one round.

        The vectorized core of the fast engine. Probes are examined in
        draw order against the round-start DB state; the first valid hit
        of each insertion index wins, later probes of an already-popped
        occupant count as misses (in the serial order they would land on
        invalidated entries — the same outcome), and all invalidations are
        applied as one slab write after the hits are chosen. Mirrors
        Algorithm 4's ``para_POP_FRONTIER`` with ``max_pops`` concurrent
        poppers: vertices appended after the round starts cannot be popped
        within it.

        Returns the popped vertex ids in pop order (length <= ``max_pops``;
        always >= 1). Metering matches ``max_pops`` scalar :meth:`pop`
        calls: probes examined, draws issued, one invalidation vector op
        and 4 private touches per pop.
        """
        if max_pops <= 0:
            raise ValueError("max_pops must be positive")
        if self.alive_entries == 0:
            raise RuntimeError("pop from an empty dashboard")
        max_pops = min(max_pops, self.alive_count)
        # first[k]: the first probe position of occupant k in this block.
        first = np.empty(self.num_added, dtype=np.int64)
        hits: list[np.ndarray] = []
        taken = 0
        while taken < max_pops:
            need = max_pops - taken
            expect = need * self.capacity / max(self.alive_entries, 1)
            if self._probe_buf.shape[0] - self._probe_pos < expect:
                # Top up so one block almost always covers the round
                # (carried tail is examined first; see _refill_probes).
                self._refill_probes(
                    rng, max(_FAST_MIN_BLOCK, int(2 * expect) + 1)
                )
            probes = self._available_probes()
            pos = (self.db_vertex[probes] != INV).nonzero()[0]
            ks = self.db_index[probes[pos]]
            # Reversed scatter: the last write per index wins, and that is
            # its first probe in draw order.
            first[ks[::-1]] = pos[::-1]
            if taken:
                # Occupants popped by an earlier block of this round are
                # misses (their entries are invalidated in the serial order).
                first[self.db_index[np.concatenate(hits)]] = -1
            sel = pos[first[ks] == pos][:need]
            # Probes examined: up to the last hit, or the whole block.
            consumed = int(sel[-1]) + 1 if sel.shape[0] else probes.shape[0]
            self._probe_pos += consumed
            self.num_probes += consumed
            self.counter.mem_ops += consumed
            if sel.shape[0]:
                hits.append(probes[sel])
                taken += sel.shape[0]
        hit_idx = hits[0] if len(hits) == 1 else np.concatenate(hits)
        vertices = self.db_vertex[hit_idx]
        # A head entry stores -deg (<= 0); the rest their back-offset.
        starts = hit_idx - np.maximum(self.db_offset[hit_idx], 0)
        degs = -self.db_offset[starts]
        self.db_vertex[_ranges_within(degs, starts)] = INV
        self.ia_alive[self.db_index[hit_idx]] = False
        popped_entries = int(degs.sum())
        self.alive_entries -= popped_entries
        self.alive_count -= taken
        self.num_pops += taken
        # Same per-pop tallies as the scalar path, summed over the round.
        self.counter.vector_elements += popped_entries
        self.counter.vector_chunks += int((-(-degs // VECTOR_LANES)).sum())
        self.counter.private_mem_ops += 4 * taken
        return vertices

    def cleanup(self) -> None:
        """Compact alive entries to the front of DB (para_CLEANUP).

        One IA traversal computes the alive vertices' new start offsets
        (cumulative sum of their entry counts, masked by the alive flag);
        the alive DB entries are then gathered into the new positions.
        """
        ks = np.flatnonzero(self.ia_alive[: self.num_added])
        starts = self.ia_start[ks]
        degs = -self.db_offset[starts]
        new_starts = degs.cumsum() - degs
        total = int(degs.sum())
        self.counter.mem_ops += self.num_added  # IA traversal + cumsum

        # Dead-region db_offset/db_index is never read (probes check
        # db_vertex first and only dereference valid hits), so only the
        # vertex slots need the INV fill.
        new_vertex = np.full(self.capacity, INV, dtype=np.int64)
        new_offset = np.empty(self.capacity, dtype=np.int64)
        new_index = np.empty(self.capacity, dtype=np.int64)
        if total:
            new_vertex[:total] = self.db_vertex[_ranges_within(degs, starts)]
            new_offset[:total] = _ranges_within(degs)
            new_offset[new_starts] = -degs
            new_index[:total] = np.repeat(
                np.arange(ks.shape[0], dtype=np.int64), degs
            )
        # Re-index IA for the compacted layout.
        self.ia_start[:] = INV
        self.ia_alive[:] = False
        if total:
            self.ia_start[: ks.shape[0]] = new_starts
            self.ia_alive[: ks.shape[0]] = True
        self.db_vertex = new_vertex
        self.db_offset = new_offset
        self.db_index = new_index
        self.used = total
        self.num_added = ks.shape[0]
        self.alive_entries = total
        self.num_cleanups += 1
        # 3 slots moved per alive entry, fully parallelizable.
        for _ in range(3):
            self.counter.count_vector_op(total)

    def grow(self, new_capacity: int) -> None:
        """Enlarge DB/IA (deviation guard; see sampler docstring).

        The paper sizes DB once from the training graph's average degree.
        A frontier that drifts onto high-degree vertices can exceed that
        sizing even right after a cleanup; growing (rare, geometric) keeps
        the run alive without changing the sampling distribution.
        """
        if new_capacity <= self.capacity:
            raise ValueError("new_capacity must exceed current capacity")
        extra = new_capacity - self.capacity
        self.db_vertex = np.concatenate(
            [self.db_vertex, np.full(extra, INV, dtype=np.int64)]
        )
        self.db_offset = np.concatenate(
            [self.db_offset, np.zeros(extra, dtype=np.int64)]
        )
        self.db_index = np.concatenate(
            [self.db_index, np.full(extra, INV, dtype=np.int64)]
        )
        self.ia_start = np.concatenate(
            [self.ia_start, np.full(extra, INV, dtype=np.int64)]
        )
        self.ia_alive = np.concatenate([self.ia_alive, np.zeros(extra, dtype=bool)])
        self.capacity = new_capacity
        self.num_grows += 1
        # Buffered draws were uniform over the old capacity; discard them.
        self._probe_buf = np.empty(0, dtype=np.int64)
        self._probe_pos = 0

    def alive_vertices(self) -> np.ndarray:
        """Current frontier vertex ids (one per alive IA entry)."""
        ks = np.flatnonzero(self.ia_alive[: self.num_added])
        return self.db_vertex[self.ia_start[ks]]


class DashboardFrontierSampler(GraphSampler):
    """Algorithm 3: frontier sampling through the Dashboard structure.

    Produces subgraphs from the same distribution as
    :class:`~repro.sampling.frontier.FrontierSampler` (verified
    statistically in the test suite) at O(1) expected work per pop, and
    meters every operation for the parallel cost model.

    Parameters
    ----------
    eta:
        Enlargement factor ``eta > 1``; the paper uses 2-3.
    max_entries_per_vertex:
        Degree cap for skewed graphs (the paper uses 30 for Amazon);
        ``None`` disables capping.
    engine:
        ``"fast"`` (vectorized round-based execution, the default) or
        ``"reference"`` (the scalar per-pop oracle); see the module
        docstring. A fast round pops up to ``max(1, frontier_size // 4)``
        vertices — a small fraction of the frontier, like the paper's
        ``p`` concurrent poppers, so replacements appended mid-round being
        invisible to the round's remaining probes has a negligible
        distributional effect.
    """

    tag = "dashboard"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        frontier_size: int,
        budget: int,
        eta: float = 2.0,
        max_entries_per_vertex: int | None = None,
        engine: str = "fast",
    ) -> None:
        super().__init__(graph, engine=engine)
        if frontier_size <= 0:
            raise ValueError("frontier_size must be positive")
        if budget < frontier_size:
            raise ValueError("budget must be >= frontier_size")
        if frontier_size > graph.num_vertices:
            raise ValueError("frontier_size exceeds graph size")
        if eta <= 1.0:
            raise ValueError("eta must exceed 1")
        if max_entries_per_vertex is not None and max_entries_per_vertex < 1:
            raise ValueError("max_entries_per_vertex must be >= 1")
        self._require_min_degree()
        self.frontier_size = frontier_size
        self.budget = budget
        self.eta = eta
        self.max_entries_per_vertex = max_entries_per_vertex
        # DB entries per vertex (degree, capped), looked up once per round.
        self._entries = (
            graph.degrees
            if max_entries_per_vertex is None
            else np.minimum(graph.degrees, max_entries_per_vertex)
        )

    def _entries_for(self, vertex: int) -> int:
        return int(self._entries[vertex])

    def _entry_counts(self, vertices: np.ndarray) -> np.ndarray:
        """Capped DB entry counts for a batch of vertices (vectorized)."""
        return self._entries[vertices]

    def _capacity(self, initial_entries: int) -> int:
        d_bar = max(self.graph.average_degree, 1.0)
        if self.max_entries_per_vertex is not None:
            d_bar = min(d_bar, float(self.max_entries_per_vertex))
        cap = int(np.ceil(self.eta * self.frontier_size * d_bar))
        max_alloc = (
            self.max_entries_per_vertex
            if self.max_entries_per_vertex is not None
            else int(self.graph.degrees.max())
        )
        # DB must at least hold the concrete initial frontier plus one
        # maximal append, else the very first add() could overflow.
        return max(cap, initial_entries + max_alloc)

    def _draw_fast(self, rng: np.random.Generator):
        return self._draw_with(self._run_fast, rng)

    def _draw_reference(self, rng: np.random.Generator):
        return self._draw_with(self._run_reference, rng)

    def _draw_with(self, run, rng: np.random.Generator):
        m = self.frontier_size
        frontier = rng.choice(self.graph.num_vertices, size=m, replace=False)
        entry_counts = self._entry_counts(frontier)
        board = Dashboard(self._capacity(int(entry_counts.sum())))
        sampled = np.empty(self.budget, dtype=np.int64)
        sampled[:m] = frontier
        board.add_many(frontier, entry_counts)
        run(board, sampled, rng)

        if obs_enabled():
            # Regenerate/occupancy telemetry: one guarded batch per sampled
            # subgraph (never per pop — that is the O(1) hot loop).
            obs_metrics.inc("sampler.pops", board.num_pops)
            obs_metrics.inc("sampler.probes", board.num_probes)
            obs_metrics.inc("sampler.cleanups", board.num_cleanups)
            obs_metrics.inc("sampler.grows", board.num_grows)
            obs_metrics.observe("sampler.frontier_occupancy", board.valid_ratio)
            obs_metrics.set_gauge("sampler.valid_ratio", board.valid_ratio)
        stats = {
            "pops": float(board.num_pops),
            "probes": float(board.num_probes),
            "cleanups": float(board.num_cleanups),
            "capacity": float(board.capacity),
            "modeled_bytes": float(board.modeled_bytes),
        }
        return sampled, stats, board.counter

    # ------------------------------------------------------------------
    # Engines
    # ------------------------------------------------------------------
    def _run_reference(
        self, board: Dashboard, sampled: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Scalar Algorithm-3 loop: one pop/replace/append per iteration."""
        graph = self.graph
        m = self.frontier_size
        pops = self.budget - m
        for i in range(pops):
            popped = board.pop(rng)
            replacement = graph.random_neighbor(popped, rng)
            board.counter.rand_ops += 1
            board.counter.mem_ops += 2  # adjacency indptr + indices reads
            entries = self._entries_for(replacement)
            if entries > board.free_entries():
                board.cleanup()
                if entries > board.free_entries():
                    board.grow(max(2 * board.capacity, board.used + entries))
            board.add(replacement, entries)
            sampled[m + i] = popped

    def _run_fast(
        self, board: Dashboard, sampled: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Round-based batched execution (see module docstring)."""
        graph = self.graph
        m = self.frontier_size
        pops = self.budget - m
        round_cap = max(1, m // 4)
        done = 0
        while done < pops:
            popped = board.pop_many(rng, min(round_cap, pops - done))
            n_round = popped.shape[0]
            replacements = graph.random_neighbors(popped, rng)
            board.counter.rand_ops += n_round
            board.counter.mem_ops += 2 * n_round  # indptr + indices reads
            entries = self._entry_counts(replacements)
            # Whole-round fit check: cleanup may land up to one round
            # earlier than the scalar trigger, but the cleanup *count*
            # over a run is set by appended volume vs post-cleanup slack,
            # so the metered totals stay equivalent (asserted in tests).
            total = int(entries.sum())
            if total > board.free_entries():
                board.cleanup()
                if total > board.free_entries():
                    board.grow(max(2 * board.capacity, board.used + total))
            board.add_many(replacements, entries)
            sampled[m + done : m + done + n_round] = popped
            done += n_round
