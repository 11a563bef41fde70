"""Simulated shared-memory machine specification.

The paper's experiments run on a dual-socket 20-core-per-socket Intel Xeon
E5-2698 v4 with AVX2 (8-wide 32-bit vectors), 256 KB private L2 per core
and DDR4 DRAM. That hardware is not available here, so scaling experiments
execute the *real* algorithms serially, meter their operations, and
:mod:`repro.experiments.repricing` prices the counts on a
:class:`MachineSpec` after the run.

The spec carries exactly the parameters the paper's own analysis uses:

* ``cost_mem`` / ``cost_rand`` — the COSTmem / COSTrand primitives of Eq. 2;
* ``l2_bytes`` — the 256 KB cache bound of Theorem 2's constraint
  ``8 n f / Q <= S_cache``;
* ``mem_contention_local`` / ``mem_contention_remote`` — per-instance
  sampler slowdown as instances fill a socket and then spill across
  sockets (the observed 20-to-40-core NUMA knee of Figure 4A);
* ``gemm_serial_fraction`` — MKL-like dense-kernel scaling: an Amdahl
  serial term capping speedup around 16x at 40 cores (Section VI-C4
  speculates "thread and buffer management" as the cause);
* ``dram_saturation_cores`` — aggregate memory bandwidth ceiling that
  bounds streaming-kernel (feature propagation) scaling near 25x.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineSpec", "xeon_40core"]


@dataclass(frozen=True)
class MachineSpec:
    """Cost-model parameters of a shared-memory parallel platform."""

    num_cores: int = 40
    cores_per_socket: int = 20
    l2_bytes: int = 256 * 1024
    l2_line_bytes: int = 64
    # Relative cost units; the paper's analysis assumes COSTmem == COSTrand.
    cost_mem: float = 1.0
    cost_rand: float = 1.0
    cost_flop: float = 0.05
    # Irregular gather-accumulate cost per element (feature aggregation):
    # dependent loads through an index array cannot be FMA-pipelined the
    # way GEMM flops can, hence ~40x the effective per-op cost of a flop.
    cost_gather: float = 2.0
    # Sampler memory-contention slopes (per-instance slowdown per extra
    # concurrent instance): intra-socket and the steeper cross-socket term.
    # Calibrated so Figure 4A reproduces the paper's ~4.5/8/12/15x curve at
    # p_inter = 5/10/20/40.
    mem_contention_local: float = 0.030
    mem_contention_remote: float = 0.055
    # DRAM streaming cost per byte relative to cost_mem per 8-byte word.
    dram_cost_per_byte: float = 0.125
    # Aggregate DRAM bandwidth saturates: streaming traffic parallelizes
    # only up to this many cores (the paper's feature propagation tops out
    # near 25x on 40 cores; its compute fraction pushes the blend above the
    # raw bandwidth ceiling).
    dram_saturation_cores: float = 26.0
    # GEMM (MKL stand-in): Amdahl serial fraction covering the library's
    # internal thread/buffer management, which the paper speculates caps
    # weight-application scaling near 16x on 40 cores (Section VI-C4).
    gemm_serial_fraction: float = 0.035

    def __post_init__(self) -> None:
        if self.num_cores <= 0 or self.cores_per_socket <= 0:
            raise ValueError("core counts must be positive")
        if self.num_cores % self.cores_per_socket:
            raise ValueError("num_cores must be a multiple of cores_per_socket")
        if self.l2_bytes <= 0:
            raise ValueError("l2_bytes must be positive")
        if min(self.cost_mem, self.cost_rand, self.cost_flop) < 0:
            raise ValueError("costs must be non-negative")
        if self.dram_saturation_cores <= 0:
            raise ValueError("dram_saturation_cores must be positive")
        if not (0.0 <= self.gemm_serial_fraction < 1.0):
            raise ValueError("gemm_serial_fraction must lie in [0, 1)")

    @property
    def num_sockets(self) -> int:
        return self.num_cores // self.cores_per_socket

    def sampler_contention_factor(self, instances: int) -> float:
        """Per-instance memory slowdown with ``instances`` busy samplers.

        Concurrent sampler instances contend on the memory system: the
        shared adjacency list and their DB append streams all hit the same
        controllers. Slowdown grows linearly with socket occupancy
        (``mem_contention_local`` per extra core) and faster once
        instances spill across sockets (``mem_contention_remote`` per
        remote core — the NUMA knee the paper observes between 20 and 40
        cores in Figure 4A).
        """
        if instances <= 0:
            raise ValueError("instances must be positive")
        instances = min(instances, self.num_cores)
        local = min(instances, self.cores_per_socket)
        remote = instances - local
        return (
            1.0
            + self.mem_contention_local * (local - 1)
            + self.mem_contention_remote * remote
        )


def xeon_40core() -> MachineSpec:
    """The paper's platform: dual-socket 40-core Xeon E5-2698 v4, AVX2."""
    return MachineSpec()
