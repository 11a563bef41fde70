"""Per-layer metrics of the traced run.

A layer is a module of ``src/repro``; its time is what the spans named
after it cover. Layer times of the compute modules (``kernels``, ``nn``,
``propagation``) are summed over one pass of the pipeline — the median
training trial (evaluation left out, as in ``time_to_f1_s``), one embed,
one index build and one replay of each serving phase — so they do not
depend on how many repeats fitted into ``--seconds``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro import obs
from repro.train.trainer import TrainResult

import pipeline as P
import workloads as W

PROBE_SHARE = 0.04  # of --seconds, for each side of an overhead probe
PROBE_MIN_ITERATIONS = 5
PROBE_MAX_ITERATIONS = 40
STANDALONE_CALLS = 50


def per_layer(run, dataset):
    spec, stages, trials, index = run.spec, run.stages, run.trials, run.index
    phase_a, phase_b, phase_c = (run.replays[s] for s in ("serve_a", "serve_b", "serve_c"))
    out: dict[str, dict] = {}

    def put(name: str, value: float, unit: str, clock: str = "wall", samples: int = 1):
        out[name] = {
            "value": float(value), "unit": unit, "clock": clock, "samples": samples,
        }

    def over(stage: str, pick) -> float:
        """Median over the repeats of ``stage`` of ``pick(timing)``."""
        return P.median([pick(t) for t in stages[stage]])

    def in_pass(pick) -> float:
        return sum(over(stage, pick) for stage in P.PASS)

    def total(name: str):
        return lambda t: t.total(name)

    def self_time(name: str):
        return lambda t: t.self_time(name)

    def kernel(key: str):
        return lambda t: t.kernels.get(key, 0.0)

    n_trials = len(trials)
    iteration_wall = over("train", total("train.iteration"))

    # graphs / sampling ------------------------------------------------
    put("graphs.make_dataset_s", over("setup", total("graphs.make_dataset")), "s",
        samples=P.SETUP_REPEATS)
    put("sampling.pool_get_s", over("train", total("sampling.pool_get")), "s",
        samples=n_trials)
    put("sampling.pool_get_share",
        over("train", lambda t: t.total("sampling.pool_get") / t.total("train.iteration")),
        "share", samples=n_trials)
    first = trials[0]
    put("sampling.subgraph_vertices_mean", np.mean(first.vertices), "count", "count",
        len(first.vertices))
    put("sampling.subgraph_edges_mean", np.mean(first.edges), "count", "count",
        len(first.edges))
    put("sampling.subgraphs", len(first.vertices), "count", "count")
    stats = [t.pool_stats for t in trials]
    prefetching = stats[0] is not None
    for name, attr in (
        ("sampling.consumer_stall_s", "consumer_stall_seconds"),
        ("sampling.producer_stall_s", "producer_stall_seconds"),
        ("sampling.mean_staleness_s", "mean_staleness"),
    ):
        put(name, P.median([getattr(s, attr) for s in stats]) if prefetching else 0.0,
            "s", samples=n_trials)
    put("sampling.norm_setup_s", over("train.init", total("sampling.norm_setup")), "s",
        samples=n_trials)

    # propagation / kernels / nn ---------------------------------------
    put("propagation.init_s", in_pass(total("propagation.init")), "s")
    put("propagation.forward_s", in_pass(total("propagation.forward")), "s")
    put("propagation.backward_s", in_pass(total("propagation.backward")), "s")
    gemm_s, gemm_flops = in_pass(kernel("gemm_seconds")), in_pass(kernel("gemm_flops"))
    put("kernels.gemm_s", gemm_s, "s")
    put("kernels.gemm_calls", in_pass(kernel("gemm_calls")), "count", "count")
    put("kernels.gemm_flops", gemm_flops, "flop", "count")
    put("kernels.gemm_gflops_per_s", gemm_flops / gemm_s / 1e9, "Gflop/s")
    put("kernels.spmm_s", in_pass(kernel("spmm_seconds")), "s")
    put("kernels.spmm_calls", in_pass(kernel("spmm_calls")), "count", "count")
    put("kernels.spmm_flops", in_pass(kernel("spmm_flops")), "flop", "count")
    put("kernels.elementwise_s", in_pass(total("kernels.elementwise")), "s")
    put("nn.forward_s", in_pass(total("nn.forward")), "s")
    put("nn.backward_s", in_pass(total("nn.backward")), "s")
    put("nn.forward_self_s", in_pass(self_time("nn.forward")), "s")
    put("nn.backward_self_s", in_pass(self_time("nn.backward")), "s")
    put("nn.loss_s", in_pass(total("nn.loss")), "s")
    put("nn.optimizer_step_s", in_pass(total("nn.optimizer_step")), "s")
    put("nn.parameters", first.parameters, "count", "count")
    put("nn.forward_backward_share",
        over("train", lambda t: (t.total("nn.forward") + t.total("nn.backward"))
             / t.total("train.iteration")),
        "share", samples=n_trials)

    # train ------------------------------------------------------------
    iteration_ms = [1e3 * s for t in trials for s in t.iteration_s]
    put("train.iteration_ms_p50", np.percentile(iteration_ms, 50), "ms",
        samples=len(iteration_ms))
    put("train.iteration_ms_p95", np.percentile(iteration_ms, 95), "ms",
        samples=len(iteration_ms))
    put("train.iteration_self_s", over("train", self_time("train.iteration")), "s",
        samples=n_trials)
    put("train.evaluate_s", over("evaluate", lambda t: t.seconds), "s",
        samples=len(stages["evaluate"]))
    put("train.init_s", over("train.init", lambda t: t.seconds), "s", samples=n_trials)
    put("train.iterations_to_f1",
        P.mean_epochs_to_threshold(trials, spec) * len(first.losses) / len(first.curve),
        "count", "count", n_trials)
    put("train.loss_at_iter_100",
        first.losses[min(P.LOSS_PROBE_ITERATION, len(first.losses) - 1)], "loss", "count")
    put("train.coverage",
        1.0 - over("train", self_time("train.iteration")) / iteration_wall,
        "share", samples=n_trials)

    # serving: single server (phase a at saturation, hit rate at the fixed rate)
    replay = total("serving.server.replay")
    put("serving.server.search_s", over("serve_a", total("serving.index.search")), "s",
        samples=len(phase_a))
    put("serving.server.replay_self_s", over("serve_a", self_time("serving.server.replay")),
        "s", samples=len(phase_a))
    put("serving.server.coverage",
        1.0 - over("serve_a", lambda t: t.self_time("serving.server.replay") / replay(t)),
        "share", samples=len(phase_a))
    put("serving.cache.get_put_s", over("serve_a", total("serving.cache.get_put")), "s",
        samples=len(phase_a))
    put("serving.cache.hit_rate", P.median([r.metrics.hit_rate for r in phase_b]),
        "share", "count", spec.requests)
    batches = [r.batch_stats for r in phase_a]
    put("serving.batcher.mean_batch_size",
        P.median([b["mean_batch_size"] for b in batches]), "count", "count")
    put("serving.batcher.batches", P.median([b["batches"] for b in batches]),
        "count", "count")
    put("serving.server.shed", sum(r.metrics.shed for r in phase_a + phase_b),
        "count", "count")
    put("serving.server.replay_qps", P.median([r.metrics.throughput for r in phase_a]),
        "1/s", "replay", spec.requests)
    put("serving.index.rows_scanned_per_query",
        P.median([r.metrics.rows_scanned / max(r.metrics.cache_misses, 1)
                  for r in phase_a]),
        "count", "count")

    # serving: cluster beside writes (phase c)
    replay = total("serving.cluster.replay")
    put("serving.cluster.build_s", over("serve_c", total("serving.cluster.build")), "s",
        samples=len(phase_c))
    put("serving.cluster.search_s", over("serve_c", total("serving.index.search")), "s",
        samples=len(phase_c))
    put("serving.cluster.replay_self_s",
        over("serve_c", self_time("serving.cluster.replay")), "s", samples=len(phase_c))
    put("serving.cluster.coverage",
        1.0 - over("serve_c", lambda t: t.self_time("serving.cluster.replay") / replay(t)),
        "share", samples=len(phase_c))
    put("serving.router.route_s", over("serve_c", total("serving.router.route")), "s",
        samples=len(phase_c))
    put("serving.upsert.apply_s", over("serve_c", total("serving.upsert.apply")), "s",
        samples=len(phase_c))
    put("serving.upsert.applied", P.median([r.stats["upserts_applied"] for r in phase_c]),
        "count", "count")
    put("serving.upsert.max_staleness_s",
        P.median([r.stats["max_staleness_s"] for r in phase_c]), "s", "replay")
    put("serving.cluster.subqueries", P.median([r.stats["subqueries"] for r in phase_c]),
        "count", "count")
    put("serving.cluster.mean_fanout", P.median([r.stats["mean_fanout"] for r in phase_c]),
        "count", "count")
    put("serving.cluster.hit_rate", P.median([r.metrics.hit_rate for r in phase_c]),
        "share", "count", spec.requests)

    # standalone calls and overhead probes -----------------------------
    queries = np.arange(W.SERVE_MAX_BATCH) % dataset.num_vertices
    put("serving.index.search_batch_ms",
        1e3 * _median_call(lambda: index.search_ids(queries, W.TOP_K)), "ms",
        samples=STANDALONE_CALLS)
    with P.make_trainer(spec, dataset, first.seed) as trainer:
        rng = np.random.default_rng(run.seed)
        put("sampling.sample_call_ms",
            1e3 * _median_call(lambda: trainer.sampler.sample(rng)), "ms",
            samples=STANDALONE_CALLS)
    traced = _probe(run, dataset, first.seed, None)
    run.rec.uninstall()
    plain = _probe(run, dataset, first.seed, len(traced))
    with obs.enabled():
        observed = _probe(run, dataset, first.seed, len(traced))
    obs.reset()
    # Ratios of lower quartiles, as in pipeline.quiet_host: the three probes
    # run one after another, so a slow spell of the host hits one of them.
    quiet = lambda times: np.percentile(times, 25)  # noqa: E731
    put("bench.trace_overhead_frac", quiet(traced) / quiet(plain) - 1.0, "share",
        samples=len(traced))
    put("obs.enabled_overhead_frac", quiet(observed) / quiet(plain) - 1.0, "share",
        samples=len(traced))

    info = {
        f"{layer}.unattributed_share": 1.0 - out[f"{layer}.coverage"]["value"]
        for layer in ("train", "serving.server", "serving.cluster")
        if out[f"{layer}.coverage"]["value"] < 0.95
    }
    return out, info


def _median_call(fn) -> float:
    times = []
    for _ in range(STANDALONE_CALLS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return P.median(times)


def _probe(run, dataset, seed: int, iterations: int | None) -> list[float]:
    """Wall seconds of the first iterations of a fresh trainer. The same
    seed gives the same subgraphs, so two probes differ only in what is
    watching them. ``None`` sizes the probe to its part of --seconds."""
    deadline = perf_counter() + PROBE_SHARE * run.seconds
    times: list[float] = []
    result = TrainResult()
    with P.make_trainer(run.spec, dataset, seed) as trainer:
        while len(times) < (iterations or PROBE_MAX_ITERATIONS):
            t0 = perf_counter()
            trainer.train_iteration(len(times), result)
            times.append(perf_counter() - t0)
            if (iterations is None and len(times) >= PROBE_MIN_ITERATIONS
                    and perf_counter() > deadline):
                break
    return times
