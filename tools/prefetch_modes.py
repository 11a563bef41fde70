"""Wall ms per training iteration with the subgraph pool inline, on one
producer thread, and on a two-worker process pool.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/prefetch_modes.py \\
        [--workloads ppi_small amazon_saint_prefetch] [--seeds 0 1 2] \\
        [--iterations 40] [--repeats 4]

Each workload is the training recipe of ``benchmarks/e2e/workloads.py`` on
its fixed corpus. For every seed, each of ``--repeats`` rounds builds one
trainer per mode — ``inline`` (``prefetch_depth=0``), ``thread``
(``prefetch_depth=2, prefetch_workers=1``) and ``process``
(``prefetch_depth=2, prefetch_workers=2``) — in an order that rotates
from round to round, runs ``WARMUP`` iterations and then times
``--iterations`` more. A round's figure is its mean ms per iteration; the
table prints the median over the rounds of each seed and over all rounds.
The three modes train on the same subgraph sequence (seeding is per
submission), so only the wall clock differs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

from repro.graphs.datasets import make_dataset
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer, TrainResult

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
import workloads as W  # noqa: E402

MODES = {
    "inline": dict(prefetch_depth=0),
    "thread": dict(prefetch_depth=2, prefetch_workers=1),
    "process": dict(prefetch_depth=2, prefetch_workers=2),
}
WARMUP = 5


def ms_per_iteration(dataset, train: dict, mode: str, seed: int, iterations: int) -> float:
    options = {**train, **MODES[mode]}
    config = TrainConfig(seed=seed, epochs=1, **options)
    with GraphSamplingTrainer(dataset, config) as trainer:
        result = TrainResult()
        for i in range(WARMUP):
            trainer.train_iteration(i, result)
        t0 = perf_counter()
        for i in range(WARMUP, WARMUP + iterations):
            trainer.train_iteration(i, result)
        return (perf_counter() - t0) * 1e3 / iterations


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["ppi_small", "amazon_saint_prefetch"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    parser.add_argument("--iterations", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=4)
    args = parser.parse_args(argv)
    print(f"{'workload':<24}{'seed':>6}" + "".join(f"{m:>10}" for m in MODES) + "  (ms/iteration)")
    for name in args.workloads:
        spec = W.WORKLOADS[name]
        dataset = make_dataset(spec.profile, scale=spec.scale, seed=spec.corpus_seed)
        pooled = {mode: [] for mode in MODES}
        for seed in args.seeds:
            rounds = {mode: [] for mode in MODES}
            order = list(MODES)
            for r in range(args.repeats):
                for mode in order[r % len(order) :] + order[: r % len(order)]:
                    rounds[mode].append(
                        ms_per_iteration(dataset, spec.train, mode, seed, args.iterations)
                    )
            for mode, values in rounds.items():
                pooled[mode] += values
            print(f"{name:<24}{seed:>6}" + "".join(
                f"{statistics.median(rounds[m]):>10.2f}" for m in MODES
            ))
        print(f"{name:<24}{'all':>6}" + "".join(
            f"{statistics.median(pooled[m]):>10.2f}" for m in MODES
        ))


if __name__ == "__main__":
    main()
