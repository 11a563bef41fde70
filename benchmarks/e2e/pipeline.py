"""One workload, end to end: set-up, timed stages, output checks.

``run_workload`` is the same code for the untraced and the traced run;
the only difference is whether the ``Recorder`` it is handed has its
wrappers installed. Every stage is timed from outside, around calls
into the program's public entry points.

Clocks: ``wall`` is ``perf_counter`` read here in the harness;
``replay`` is the serving event loop's own clock (arrivals from the
trace, service times measured around the real kernels) and is only ever
used for the latency percentiles and ``*.replay_qps``; ``count`` is
exact. No series mixes them.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.graphs.datasets import make_dataset
from repro.serving.cluster import ClusterConfig, ClusterServer, partition_vertices
from repro.serving.index import BruteForceIndex, build_index, recall_at_k
from repro.serving.server import EmbeddingServer, ServerConfig
from repro.serving.upsert import SlabUpsertProducer, drift_refresh
from repro.serving.workload import zipf_trace
from repro.train.config import TrainConfig
from repro.train.embedding import compute_embeddings
from repro.train.trainer import GraphSamplingTrainer, TrainResult

import workloads as W
from tracing import Recorder, Timing

SETUP_REPEATS = 3
WARMUP_ITERATIONS = 3
WARMUP_BATCHES = 2
LOSS_PROBE_ITERATION = 100
DETERMINISM_SHARE = 0.05  # of --seconds, for the same-seed replay
# Within a serving round a cheap stage is repeated until this much time has
# gone into it, so that a 10 ms stage is not judged on 4 samples a run.
LIGHT_STAGE_SECONDS = 0.06  # embed, index build
REPLAY_SECONDS = 0.15  # phase a; phase b gets twice that (a p95 is what a burst hits first)
# What calibration_sample() takes on the reference host while it is quiet;
# wall metrics are scaled by reference / measured (see host_speed). It is
# taken before stage repeats and epochs, at most once per interval.
CALIBRATION_REFERENCE_S = 7.4e-3
CALIBRATION_INTERVAL_S = 0.1
PHASES = ("serve_a", "serve_b", "serve_c")
# One pass of the pipeline: a trial and a serving round. The layer times of
# the "kernels.*", "nn.*" and "propagation.*" metrics are summed over it.
PASS = ("train", "embed", "index") + PHASES


def median(values) -> float:
    return float(statistics.median(values))


def merged(timings: list[Timing]) -> Timing:
    """Sum of several timings (the epochs of one trial, say)."""
    out = Timing()
    for t in timings:
        out.seconds += t.seconds
        for name, row in t.names.items():
            acc = out.names.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for key, value in t.kernels.items():
            out.kernels[key] = out.kernels.get(key, 0.0) + value
    return out


@dataclass
class Trial:
    """One training run of the fixed recipe, driven by the harness loop."""

    seed: int
    init: Timing
    iterations: Timing  # merged over epochs; evaluation is not in it
    iteration_s: list[float]
    losses: list[float]
    vertices: list[int]
    edges: list[int]
    curve: list[float]  # validation F1-micro at each epoch end
    evaluate_s: list[float]
    model: object
    parameters: int
    pool_stats: object | None

    def per_epoch(self, values: list) -> list[float]:
        """``values`` (one per iteration) summed over each epoch."""
        n = len(values) // len(self.curve)
        return [float(sum(values[i : i + n])) for i in range(0, len(values), n)]


def epochs_to_threshold(curve: list[float], threshold: float) -> float | None:
    """Epochs of training after which the validation-F1 curve first
    reaches ``threshold``, or None if it never does.

    Validation runs at epoch ends, so the crossing is interpolated
    linearly between the two evaluations around it (from F1 0 at epoch 0);
    without that the metric moves in whole-epoch steps.
    """
    previous = 0.0
    for epoch, f1 in enumerate(curve):
        if f1 >= threshold:
            rise = f1 - previous
            return epoch + ((threshold - previous) / rise if rise > 0 else 1.0)
        previous = f1
    return None


def mean_epochs_to_threshold(trials, spec: W.Workload) -> float:
    """Mean over trials of ``epochs_to_threshold``. Trials differ in seed
    only, their crossings are close to normal (README, "Noise"), and the
    mean of k is then a quarter steadier across seeds than the median. A
    trial that never crosses is a failed operation (counted in
    check_outputs) and enters at the full recipe."""
    to_f1 = (epochs_to_threshold(t.curve, spec.f1_threshold) for t in trials)
    return statistics.fmean(e if e is not None else spec.epochs for e in to_f1)


def make_trainer(spec: W.Workload, dataset, seed: int) -> GraphSamplingTrainer:
    return GraphSamplingTrainer(
        dataset, TrainConfig(seed=seed, epochs=spec.epochs, **spec.train)
    )


def trace_for(spec: W.Workload, dataset, seed: int, phase: str, repeat: int):
    """Every replay gets a trace of its own, so the hit rate a run sees is
    an average over draws and not one draw's luck."""
    rate = {
        "serve_a": W.SATURATING_QPS, "serve_b": spec.fixed_qps, "serve_c": spec.cluster_qps,
    }[phase]
    return zipf_trace(
        spec.requests, dataset.num_vertices, skew=W.ZIPF_SKEW, rate=rate, k=W.TOP_K,
        rng=np.random.default_rng([seed, PHASES.index(phase), repeat]),
    )


def server_config(spec: W.Workload, queue_capacity: int) -> ServerConfig:
    return ServerConfig(
        max_batch=W.SERVE_MAX_BATCH, max_wait=W.SERVE_MAX_WAIT,
        queue_capacity=queue_capacity, cache_capacity=spec.cache_capacity,
    )


def build_ann(spec: W.Workload, embeddings):
    return build_index(
        embeddings, "cluster", num_clusters=spec.num_clusters, probes=spec.probes
    )


def build_cluster(spec: W.Workload, embeddings, seed: int, duration: float):
    """Phase-c server: shards x replicas, with the slab producer spreading
    its rounds over the middle 80% of the trace."""
    assignment = partition_vertices(
        embeddings, num_shards=W.CLUSTER_SHARDS, rng=np.random.default_rng(0)
    )
    slabs = W.UPSERT_ROUNDS * W.CLUSTER_SHARDS
    producer = SlabUpsertProducer(
        embeddings, assignment, start=0.1 * duration,
        interval=0.8 * duration / slabs, rounds=W.UPSERT_ROUNDS, seed=seed,
        refresh_fn=drift_refresh(W.UPSERT_DRIFT),
    )
    return ClusterServer(
        embeddings,
        config=ClusterConfig(
            num_shards=W.CLUSTER_SHARDS, replicas=W.CLUSTER_REPLICAS,
            fanout=W.CLUSTER_FANOUT, max_batch=W.SERVE_MAX_BATCH,
            max_wait=W.SERVE_MAX_WAIT, queue_capacity=W.SERVE_QUEUE_CAPACITY,
            cache_capacity=spec.cache_capacity, shard_index="cluster",
        ),
        assignment=assignment,
        index_kwargs=dict(
            num_clusters=max(spec.num_clusters // W.CLUSTER_SHARDS, 4),
            probes=max(spec.probes // 2, 2),
        ),
        upserts=producer,
    )


def boxed(seconds: float, fn) -> None:
    """Call ``fn`` until ``seconds`` have gone into it, at least once."""
    t0 = perf_counter()
    fn()
    while perf_counter() - t0 < seconds:
        fn()


_CAL_A = np.random.default_rng(0).random((192, 192))


def calibration_sample() -> float:
    """Seconds for a fixed piece of work shaped like the program's own:
    small GEMMs and interpreter bytecode, about 7 ms. It has to be about
    as long as the stages it stands for: the host's slow spells are partly
    shorter than that, and a 2 ms sample slips between them where a stage
    cannot (on recordings the quartile of a 12 ms sample tracks the stages'
    quartiles to within 5-9%, that of a 2 ms sample to within 35%)."""
    t0 = perf_counter()
    for _ in range(24):
        _CAL_A @ _CAL_A
    total = 0
    for i in range(30000):
        total += i * i
    return perf_counter() - t0


@dataclass
class Run:
    spec: W.Workload
    seed: int
    seconds: float
    rec: Recorder
    checks: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stages: dict[str, list[Timing]] = field(default_factory=dict)
    trials: list[Trial] = field(default_factory=list)
    replays: dict[str, list] = field(default_factory=dict)
    upserts_applied: list[int] = field(default_factory=list)
    recalls: list[float] = field(default_factory=list)  # one per serving round
    calibration: list[float] = field(default_factory=list)
    calibrated_at: float = 0.0
    embeddings: np.ndarray | None = None  # of the last serving round
    index: object | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        self.operations(1, 0 if ok else 1)

    def operations(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def calibrate(self) -> None:
        now = perf_counter()
        if now - self.calibrated_at >= CALIBRATION_INTERVAL_S:
            self.calibration.append(calibration_sample())
            self.calibrated_at = perf_counter()

    def timed(self, stage: str, label: str | None = None):
        """A stage repeat whose timing is kept under ``stage``."""
        self.calibrate()
        ctx = self.rec.stage(label or stage)
        self.stages.setdefault(stage, []).append(ctx.timing)
        return ctx

    # -- set-up --------------------------------------------------------
    def setup(self):
        """Everything a user waits for before the first timed operation:
        corpus generation, trainer construction (SAINT pre-sampling
        included), and a dry pass of every stage on the untrained model so
        that lazy imports, the adjacency memo and first-call allocations
        are paid here and not inside a timed stage."""
        spec, seed = self.spec, self.seed
        with self.timed("setup"):
            with self.rec.span("graphs.make_dataset"):
                dataset = make_dataset(
                    spec.profile, scale=spec.scale, seed=spec.corpus_seed
                )
            with make_trainer(spec, dataset, 1000 * seed) as trainer:
                result = TrainResult()
                for i in range(WARMUP_ITERATIONS):
                    trainer.train_iteration(i, result)
                trainer.evaluator.evaluate(trainer.model, "val")
                embeddings = compute_embeddings(trainer.model, dataset)
            index = build_ann(spec, embeddings)
            queries = np.arange(W.SERVE_MAX_BATCH) % dataset.num_vertices
            for _ in range(WARMUP_BATCHES):
                index.search_ids(queries, W.TOP_K)
            EmbeddingServer(
                embeddings, config=server_config(spec, W.SERVE_QUEUE_CAPACITY), index=index
            ).query(0, W.TOP_K)
            with self.rec.span("serving.cluster.build"):
                cluster = build_cluster(spec, embeddings, seed, 1.0)
            cluster.query(0, W.TOP_K)
        return dataset

    # -- training ------------------------------------------------------
    def trial(self, dataset, seed: int, *, deadline: float | None = None) -> Trial:
        """The harness-driven training loop: every iteration and every
        evaluation is timed on its own, and evaluation time is no part of
        the time-to-F1 clock (the Fig. 2 definition). ``deadline`` stops a
        determinism replay at an epoch end."""
        spec, rec = self.spec, self.rec
        init = rec.stage("train.init")
        with init:
            trainer = make_trainer(spec, dataset, seed)
        epochs: list[Timing] = []
        iteration_s, losses, curve, evaluate_s = [], [], [], []
        result = TrainResult()
        with trainer:
            for _ in range(spec.epochs):
                self.calibrate()
                epoch = rec.stage("train.epoch")
                with epoch:
                    for _ in range(trainer.batches_per_epoch):
                        with rec.span("train.iteration") as it:
                            loss = trainer.train_iteration(result.iterations, result)
                        result.iterations += 1
                        iteration_s.append(it.seconds)
                        losses.append(float(loss))
                epochs.append(epoch.timing)
                with self.timed("evaluate", "train.evaluate") as ev:
                    val = trainer.evaluator.evaluate(trainer.model, "val")
                evaluate_s.append(ev.seconds)
                curve.append(float(val.f1_micro))
                if deadline is not None and (
                    perf_counter() > deadline
                    or result.iterations > LOSS_PROBE_ITERATION
                ):
                    break
            pool_stats = getattr(trainer.pool, "stats", None)
        metrics = result.iteration_metrics
        return Trial(
            seed=seed, init=init.timing, iterations=merged(epochs),
            iteration_s=iteration_s, losses=losses,
            vertices=[m.subgraph_vertices for m in metrics],
            edges=[m.subgraph_edges for m in metrics],
            curve=curve, evaluate_s=evaluate_s, model=trainer.model,
            parameters=trainer.model.num_parameters(), pool_stats=pool_stats,
        )

    def train(self, dataset) -> None:
        trial = self.trial(dataset, 1000 * self.seed + len(self.trials))
        self.trials.append(trial)
        self.stages.setdefault("train", []).append(trial.iterations)
        self.stages.setdefault("train.init", []).append(trial.init)

    def determinism(self, dataset) -> None:
        """Same seed, fresh trainer: losses and validation F1 must repeat
        bit for bit (through iteration 100, or as far as the budget goes)."""
        first = self.trials[0]
        deadline = perf_counter() + DETERMINISM_SHARE * self.seconds
        again = self.trial(dataset, first.seed, deadline=deadline)
        n, e = len(again.losses), len(again.curve)
        self.check(
            "seed_bit_identical",
            again.losses == first.losses[:n] and again.curve == first.curve[:e],
            f"{n} iterations, {e} evaluations replayed",
        )

    # -- serving -------------------------------------------------------
    def replay(self, stage: str, span: str, make_server, dataset):
        """Replay a fresh trace on a fresh server; the stage's time is the
        ``serve_trace`` call alone."""
        trace = trace_for(
            self.spec, dataset, self.seed, stage, len(self.replays.setdefault(stage, []))
        )
        with self.timed(stage) as whole:
            server = make_server(trace)
            with self.rec.span(span) as call:
                replay = server.serve_trace(trace, collect_results=True)
        whole.seconds = call.seconds
        self.replays[stage].append(replay)
        return server

    def serving_round(self, dataset) -> None:
        """embed -> build index -> the three replays, on the model of the
        trial that ran last: what a replay costs follows the embedding's
        geometry (cell and shard balance), which is the seed's, so a run
        serves several models and not one draw."""
        spec, seed = self.spec, self.seed
        model = self.trials[-1].model
        first_a = len(self.replays.get("serve_a", []))

        def embed():
            with self.timed("embed"):
                self.embeddings = compute_embeddings(model, dataset)

        def index():
            with self.timed("index"):
                self.index = build_ann(spec, self.embeddings)

        def single_server(queue_capacity):
            return lambda trace: EmbeddingServer(
                self.embeddings, index=self.index,
                config=server_config(spec, queue_capacity or len(trace)),
            )

        def cluster_server(trace):
            with self.rec.span("serving.cluster.build"):
                return build_cluster(spec, self.embeddings, seed, float(trace.arrivals[-1]))

        boxed(LIGHT_STAGE_SECONDS, embed)
        boxed(LIGHT_STAGE_SECONDS, index)
        boxed(REPLAY_SECONDS, lambda: self.replay(
            "serve_a", "serving.server.replay", single_server(None), dataset))
        boxed(2 * REPLAY_SECONDS, lambda: self.replay(
            "serve_b", "serving.server.replay", single_server(W.SERVE_QUEUE_CAPACITY), dataset))
        cluster = self.replay("serve_c", "serving.cluster.replay", cluster_server, dataset)
        self.upserts_applied.append(cluster.upserts_applied)
        self.recalls.append(self.recall(dataset, first_a))

    def recall(self, dataset, repeat: int) -> float:
        """Phase-a answers of replay ``repeat`` against the exact scan of
        the matrix they were served from."""
        trace = trace_for(self.spec, dataset, self.seed, "serve_a", repeat)
        results = self.replays["serve_a"][repeat].results
        unique, inverse = np.unique(trace.query_ids, return_inverse=True)
        exact, _ = BruteForceIndex(self.embeddings).search_ids(unique, W.TOP_K)
        return recall_at_k(np.stack([results[s] for s in range(len(trace))]), exact[inverse])

    # -- output checks -------------------------------------------------
    def check_outputs(self, dataset) -> None:
        spec = self.spec
        thresholds = [epochs_to_threshold(t.curve, spec.f1_threshold) for t in self.trials]
        self.operations(len(thresholds), sum(e is None for e in thresholds))
        self.check(
            "f1_threshold_crossed", None not in thresholds,
            f"threshold {spec.f1_threshold}, final F1 "
            + ", ".join(f"{t.curve[-1]:.4f}" for t in self.trials),
        )
        dim = 2 * spec.train["hidden_dims"][-1]
        self.check(
            "embeddings_finite_and_shaped",
            self.embeddings.shape == (dataset.num_vertices, dim)
            and bool(np.isfinite(self.embeddings).all()),
            f"shape {self.embeddings.shape}",
        )
        for stage in PHASES:
            served = [r.metrics.served for r in self.replays[stage]]
            shed = [r.metrics.shed for r in self.replays[stage]]
            self.check(
                f"{stage}_requests_conserved",
                all(a + b == spec.requests for a, b in zip(served, shed)),
                f"served {sum(served)} + shed {sum(shed)} "
                f"of {len(served)} x {spec.requests}",
            )
            self.operations(spec.requests * len(served), sum(shed))
        slabs = W.UPSERT_ROUNDS * W.CLUSTER_SHARDS
        self.check(
            "upserts_applied", all(n == slabs for n in self.upserts_applied),
            f"{self.upserts_applied} of {slabs} each",
        )
        # The floor is on the metric, the median of the rounds: under Zipf a
        # few hot queries carry a replay's recall, and one model in ~40 puts
        # one of them on a cell border (0.94 where its neighbours read 0.99+).
        self.check(
            "recall_at_10_floor", median(self.recalls) >= W.RECALL_FLOOR,
            "first phase-a replay of each round: "
            + ", ".join(f"{r:.4f}" for r in self.recalls),
        )


def quiet_host(values, unit: str, clock: str, better: str = "lower", speed: float = 1.0) -> dict:
    """The repeats' quartile on the good side - the lower one for a time,
    the upper one for a rate - with median, min, max and count beside it.

    The host slows by 20-100% for spells of a fraction of a second to
    minutes (README, "Noise"). Slow spells only ever add time, so the good
    quartile of repeats spread over the whole run is what the program
    costs while the host is not being slowed; on 3-minute recordings its
    run-to-run spread is a third of the median's. ``speed`` (host_speed)
    takes out what is left: spells longer than a run.
    """
    raw = float(np.percentile(values, 25 if better == "lower" else 75))
    return {
        "value": raw * speed if better == "lower" else raw / speed,
        "unit": unit, "clock": clock, "raw": raw, "median": median(values),
        "min": float(min(values)), "max": float(max(values)), "samples": len(values),
    }


def host_speed(calibration: list[float]) -> float:
    """Reference over measured time of ``calibration_sample``: 1.0 on the
    quiet reference host, 0.7 while the host runs everything 1/0.7 slower.

    A run-long slow spell moves the calibration and every stage alike
    (recorded: calibration x1.5, epoch time x1.54, embed x1.6, replay
    x1.9), so wall metrics are reported at reference speed: times are
    multiplied by it, rates divided. It is the good-side quartile, like
    the metrics it scales, of ~100 samples a run, and repeats within 2% on
    a quiet host.
    """
    return CALIBRATION_REFERENCE_S / float(np.percentile(calibration, 25))


def run_workload(spec: W.Workload, seed: int, seconds: float, rec: Recorder) -> dict:
    """Run every stage of ``spec``; returns the result document.

    The repeats of every stage are spread over the whole run - training
    trials sit between serving rounds - so that a slow spell of the host
    touches a minority of each metric's samples instead of all the
    samples of one metric (see ``quiet_host``).
    """
    run = Run(spec, seed, seconds, rec)
    rec.install()
    try:
        for _ in range(SETUP_REPEATS):
            dataset = run.setup()
        started = perf_counter()
        # Trial k runs before round k * rounds // trials. The counts are
        # sized to fit --seconds on the reference host; a slower host
        # stops early, after at least one trial and one round.
        trial_slots = [k * spec.rounds // spec.trials for k in range(spec.trials)]
        for r in range(spec.rounds):
            spent = r > 0 and perf_counter() - started > seconds
            for _ in range(0 if spent else trial_slots.count(r)):
                run.train(dataset)
            if not spent:
                run.serving_round(dataset)
        run.determinism(dataset)
        run.check_outputs(dataset)
        measured = perf_counter() - started

        if rec.enabled:
            import layers

            metrics, info = layers.per_layer(run, dataset)
            for name, (op, limit) in spec.contrast.items():
                value = metrics[name]["value"]
                ok = value >= limit if op == ">=" else value <= limit
                run.check(f"contrast:{name}", ok, f"{value:.3f} {op} {limit}")
        else:
            metrics, info = _end_to_end(run)
    finally:
        rec.uninstall()
    info.update(
        vertices=dataset.num_vertices, edges=int(dataset.graph.num_edges),
        attribute_dim=int(dataset.features.shape[1]),
        cache_capacity=spec.cache_capacity, measured_s=measured,
        calibration_ms=float(np.percentile(run.calibration, 25)) * 1e3,
        calibration_samples=len(run.calibration),
        repeats={stage: len(ts) for stage, ts in run.stages.items()},
    )
    return {
        "workload": spec.name, "seed": seed, "seconds": seconds,
        "trace": int(rec.enabled),
        "correct": all(c["ok"] for c in run.checks),
        "attempted": run.attempted, "failed": run.failed,
        "checks": run.checks, "metrics": metrics, "info": info,
    }


def _latency_ms(replays, q: float) -> list[float]:
    return [1e3 * r.metrics.latency.percentile(q) for r in replays]


def _end_to_end(run: Run):
    spec, stages, trials = run.spec, run.stages, run.trials
    requests = spec.requests
    # Time to F1 = epochs to the threshold (mean over trials) x the
    # training wall time of one epoch (evaluation excluded; quiet-host
    # quartile over every epoch of every trial). Summing consecutive
    # iterations instead would inherit any slow spell they ran in; whole
    # epochs are kept as the unit so that a cost paid every few iterations
    # still counts.
    to_f1 = [epochs_to_threshold(t.curve, spec.f1_threshold) for t in trials]
    epochs = mean_epochs_to_threshold(trials, spec)
    epoch_s = [s for t in trials for s in t.per_epoch(t.iteration_s)]
    epoch_vertices = [v for t in trials for v in t.per_epoch(t.vertices)]
    phase_b, phase_c = run.replays["serve_b"], run.replays["serve_c"]
    speed = host_speed(run.calibration)

    def seconds(stage: str) -> list[float]:
        return [t.seconds for t in stages[stage]]

    def wall(values, unit: str, better: str = "lower") -> dict:
        return quiet_host(values, unit, "wall", better, speed)

    def latency(replays) -> dict:
        """p95 on the replay clock = the batching wait, which is the
        trace's, + service times measured on this host: the part above
        ``max_wait`` is put at reference speed like a wall time (a run 30%
        slow read 5.7 ms where a quiet one reads 4.1)."""
        m = quiet_host(_latency_ms(replays, 95), "ms", "replay")
        wait = 1e3 * W.SERVE_MAX_WAIT
        m["value"] = min(m["raw"], wait) + max(m["raw"] - wait, 0.0) * speed
        return m

    metrics = {
        "setup_s": wall(seconds("setup"), "s"),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB", "clock": "count", "samples": 1,
        },
        "time_to_f1_s": wall([epochs * s for s in epoch_s], "s"),
        "train_vertices_per_s": wall(
            [v / s for v, s in zip(epoch_vertices, epoch_s)], "1/s", "higher"
        ),
        "final_val_f1": {
            "value": median([t.curve[-1] for t in trials]), "unit": "f1",
            "clock": "count", "samples": len(trials),
        },
        "embed_s": wall(seconds("embed"), "s"),
        "index_build_s": wall(seconds("index"), "s"),
        "serve_wall_qps": wall([requests / s for s in seconds("serve_a")], "1/s", "higher"),
        "serve_p95_ms": latency(phase_b),
        "cluster_wall_qps": wall([requests / s for s in seconds("serve_c")], "1/s", "higher"),
        "cluster_p95_ms": latency(phase_c),
        "recall_at_10": {
            "value": median(run.recalls), "unit": "share", "clock": "count",
            "samples": requests * len(run.recalls),
        },
    }
    info = {
        "host_speed": speed,
        "f1_threshold": spec.f1_threshold,
        "epochs_to_f1": to_f1,
        "f1_curve": trials[0].curve,
        "evaluate_s_per_call": median([s for t in trials for s in t.evaluate_s]),
        # The other percentiles the replays support, on the replay clock:
        # p99 of N requests has N/100 samples beyond it.
        "serve_latency_ms": {
            "p50": float(np.percentile(_latency_ms(phase_b, 50), 25)),
            "p99": float(np.percentile(_latency_ms(phase_b, 99), 25)),
            "samples": requests,
        },
        "cluster_latency_ms": {
            "p50": float(np.percentile(_latency_ms(phase_c, 50), 25)),
            "p99": float(np.percentile(_latency_ms(phase_c, 99), 25)),
            "samples": requests,
        },
        "serve_fixed_hit_rate": median([r.metrics.hit_rate for r in phase_b]),
    }
    return metrics, info
