"""Property-based tests for the Dashboard data structure.

Random sequences of add/pop/cleanup operations must preserve the core
invariants: alive-entry accounting, contiguous per-vertex blocks, IA/DB
consistency, and pop always returning a currently-alive vertex.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.dashboard import INV, Dashboard


def check_invariants(db: Dashboard, alive_expected: dict[int, int]) -> None:
    # Alive entry count matches the sum of alive vertices' allocations.
    assert db.alive_entries == sum(alive_expected.values())
    # The occupant counter pop_many caps a round with equals the flags.
    assert (
        db.alive_count
        == np.count_nonzero(db.ia_alive[: db.num_added])
        == len(alive_expected)
    )
    assert 0 <= db.used <= db.capacity
    # Every alive IA entry points at a well-formed contiguous block.
    ks = np.flatnonzero(db.ia_alive[: db.num_added])
    seen = {}
    for k in ks:
        start = int(db.ia_start[k])
        deg = -int(db.db_offset[start])
        assert deg >= 1
        v = int(db.db_vertex[start])
        assert v != INV
        block = db.db_vertex[start : start + deg]
        assert np.all(block == v)
        offs = db.db_offset[start + 1 : start + deg]
        assert np.array_equal(offs, np.arange(1, deg))
        seen[v] = seen.get(v, 0) + deg
    assert seen == alive_expected


@st.composite
def op_sequences(draw):
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(1, 12)),
                st.tuples(st.just("add_many"), st.integers(1, 6)),
                st.tuples(st.just("pop"), st.just(0)),
                st.tuples(st.just("pop_many"), st.integers(1, 6)),
                st.tuples(st.just("cleanup"), st.just(0)),
                st.tuples(st.just("grow"), st.integers(1, 200)),
            ),
            min_size=1,
            max_size=40,
        )
    )


class TestDashboardInvariants:
    @given(op_sequences(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_op_sequences(self, ops, seed):
        rng = np.random.default_rng(seed)
        db = Dashboard(400)
        alive: dict[int, int] = {}
        next_vertex = 0
        for op, arg in ops:
            if op in ("add", "add_many"):
                # The sampler never re-adds a vertex that is currently in
                # the frontier; fresh ids model that.
                if op == "add":
                    counts = np.array([arg])
                else:
                    counts = rng.integers(1, 13, size=arg)
                total = int(counts.sum())
                if total > db.free_entries():
                    db.cleanup()
                if total > db.free_entries():
                    db.grow(max(2 * db.capacity, db.used + total))
                vertices = np.arange(next_vertex, next_vertex + counts.size)
                if op == "add":
                    db.add(next_vertex, arg)
                else:
                    db.add_many(vertices, counts)
                alive.update(zip(vertices.tolist(), counts.tolist()))
                next_vertex += counts.size
            elif op in ("pop", "pop_many"):
                if db.alive_entries == 0:
                    continue
                popped = [db.pop(rng)] if op == "pop" else db.pop_many(rng, arg)
                assert 1 <= len(popped) <= max(arg, 1)
                for v in popped:
                    assert v in alive
                    del alive[v]
            elif op == "grow":
                db.grow(db.capacity + arg)
            else:
                db.cleanup()
                assert db.used == db.alive_entries
            check_invariants(db, alive)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_pop_all_returns_each_vertex_once(self, seed):
        rng = np.random.default_rng(seed)
        db = Dashboard(300)
        for v in range(10):
            db.add(v, 1 + v % 5)
        popped = [db.pop(rng) for _ in range(10)]
        assert sorted(popped) == list(range(10))
        assert db.alive_entries == 0
