"""Command-line experiment runner.

Regenerate any paper artifact without writing code::

    python -m repro.cli table1
    python -m repro.cli fig2 --epoch-scale 0.5
    python -m repro.cli fig3 --hidden 512 --datasets ppi reddit
    python -m repro.cli fig4
    python -m repro.cli table2
    python -m repro.cli ablations
    python -m repro.cli serve-bench --queries 3000
    python -m repro.cli serve-bench --cluster --shards 4 --replicas 2
    python -m repro.cli all --out results/

Observability (see ``docs/observability.md``)::

    python -m repro.cli train-bench --out results/
    python -m repro.cli obs-report --trace results/OBS_train_bench.json
    python -m repro.cli obs-report --trace results/OBS_serve_cluster.json --exemplars
    python -m repro.cli obs-report --trace results/OBS_serve_cluster.json --request t1.req-000042
    python -m repro.cli flight-dump --out results/

``train-bench`` runs one instrumented training run and exports the trace
(``OBS_train_bench.json`` + a Chrome ``trace_event`` file next to it);
``obs-report`` renders the per-phase breakdown table of any exported
trace — or, with ``--exemplars``, the retained tail exemplars (the
concrete slow requests behind the percentiles), or, with ``--request
<id>``, that request's span tree with its critical path marked (works on
trace documents and flight dumps alike); ``flight-dump`` runs a small
hedged replay and writes the flight recorder's ring buffers as an
``OBS_flightdump_*.json`` diagnostic bundle on demand. Each subcommand
prints the paper-style table; ``--out DIR`` additionally writes it to
``DIR/<name>.txt``.

Continuous performance observability::

    python -m repro.cli bench-record --results benchmarks/results
    python -m repro.cli bench-diff   --results benchmarks/results
    python -m repro.cli bench-gate   --results benchmarks/results
    python -m repro.cli slo-report   --queries 1000

``bench-record`` appends every ``BENCH_*.json`` record (raw samples +
environment fingerprint) to the JSONL history store; ``bench-diff``
compares the current records against their history series
(Mann–Whitney U + bootstrap CI, see :mod:`repro.obs.regress`);
``bench-gate`` does the same and exits 1 on any ``regressed`` verdict;
``slo-report`` runs a small instrumented training + serving + hedged
cluster workload and evaluates the standing SLO rules
(:mod:`repro.obs.slo`) against it — any breach auto-produces a
debounced flight dump next to the report (``--force-breach``
demonstrates that path with impossible thresholds).

Kernel layer (see ``docs/kernels.md``)::

    python -m repro.cli roofline-report --out results/

``roofline-report`` runs one small training run and places every
accounted kernel shape class on the measured machine roofline
(``OBS_roofline.json``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from .experiments import (
    ablations,
    extensions,
    fig2,
    fig3,
    fig4,
    serving,
    table1,
    table2,
)
from .experiments.common import format_table
from .obs.record import write_bench_json

__all__ = ["main", "build_parser"]


def _emit(name: str, text: str, out: pathlib.Path | None) -> None:
    print(text)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(text + "\n")
        print(f"[written to {out / (name + '.txt')}]")


def _run_table1(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    _emit("table1", table1.format_results(table1.run(seed=args.seed)), out)


def _run_fig2(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    results = fig2.run(
        datasets=args.datasets,
        epoch_scale=args.epoch_scale,
        hidden=args.hidden or 128,
        seed=args.seed,
    )
    _emit("fig2", fig2.format_results(results), out)


def _run_fig3(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    from .experiments.plotting import ascii_speedup_plot

    hidden = (args.hidden,) if args.hidden else (512, 1024)
    results = fig3.run(
        datasets=args.datasets, hidden_dims=hidden, seed=args.seed
    )
    curves: dict[str, dict[int, float]] = {}
    for row in results["rows"]:
        key = f"{row['dataset']}/h{row['hidden']}"
        curves.setdefault(key, {})[row["cores"]] = row["iteration_speedup"]
    text = fig3.format_results(results) + "\n\n" + ascii_speedup_plot(
        curves, title="Figure 3A: iteration speedup vs cores"
    )
    _emit("fig3", text, out)


def _run_fig4(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    from .experiments.plotting import ascii_speedup_plot

    results = fig4.run(datasets=args.datasets, seed=args.seed)
    curves: dict[str, dict[int, float]] = {}
    for row in results["panel_a"]:
        curves.setdefault(row["dataset"], {})[row["p_inter"]] = row[
            "sampling_speedup"
        ]
    text = fig4.format_results(results) + "\n\n" + ascii_speedup_plot(
        curves, title="Figure 4A: sampling speedup vs p_inter"
    )
    _emit("fig4", text, out)


def _run_table2(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    results = table2.run(hidden=args.hidden or 128, seed=args.seed)
    _emit("table2", table2.format_results(results), out)


def _run_ablations(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    pieces = [
        ("X1: feature-only partitioning", ablations.run_partitioning(seed=args.seed)),
        (
            "X1b: measured gamma_P of real partitioners",
            ablations.run_partitioner_gamma(seed=args.seed),
        ),
        ("X2: Dashboard eta sweep", ablations.run_dashboard_eta(seed=args.seed)),
        ("X8: alias table vs Dashboard", ablations.run_alias_contrast()),
        ("X3: degree cap (Amazon)", ablations.run_degree_cap(seed=args.seed)),
        (
            "X4: sampler comparison (PPI)",
            ablations.run_sampler_comparison(seed=args.seed),
        ),
    ]
    text = "\n\n".join(
        format_table(res["rows"], title=title) for title, res in pieces
    )
    _emit("ablations", text, out)


def _run_extensions(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    pieces = [
        ("X6: depth vs accuracy", extensions.run_depth_accuracy(seed=args.seed)),
        (
            "X7: fixed budget, growing graph",
            extensions.run_budget_scaling(seed=args.seed),
        ),
    ]
    text = "\n\n".join(
        format_table(res["rows"], title=title) for title, res in pieces
    )
    _emit("extensions", text, out)


def _run_serve_bench(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    """Replay the Zipf query trace through the serving configurations.

    With ``--cluster``, run the sharded/replicated cluster experiment
    instead (million-vertex Zipf throughput + recall, bursty hedging,
    streaming-upsert soak under the cluster SLOs) and emit
    ``BENCH_serve_cluster.json``.
    """
    if args.cluster:
        # The cluster experiment saturates at a lower offered multiple
        # than the single-server comparison: its own default applies only
        # when --load-factor is not given.
        load_factor = 8.0 if args.load_factor is None else args.load_factor
        results = serving.run_cluster(
            num_queries=args.queries,
            num_vertices=args.cluster_vertices,
            num_shards=args.shards,
            replicas=args.replicas,
            fanout=args.fanout,
            load_factor=load_factor,
            soak_vertices=min(50_000, args.cluster_vertices),
            seed=args.seed,
        )
        _emit("serve_cluster", serving.format_cluster_results(results), out)
        if out is not None:
            import json

            samples = {
                f"latency_s.{config}": values
                for config, values in results.get("latency_samples", {}).items()
            }
            path = write_bench_json(
                out / "BENCH_serve_cluster.json",
                "serve_cluster",
                {
                    k: v
                    for k, v in results.items()
                    if k not in ("latency_samples", "trace_doc")
                },
                samples=samples,
                env=_fingerprint(args),
            )
            print(f"[written to {path}]")
            # The hedged replay's request span forest + tail exemplars:
            # obs-report --exemplars / --request read this document.
            obs_path = out / "OBS_serve_cluster.json"
            obs_path.write_text(
                json.dumps(results["trace_doc"], indent=2) + "\n"
            )
            print(f"[written to {obs_path}]")
        return
    results = serving.run(
        num_queries=args.queries,
        load_factor=20.0 if args.load_factor is None else args.load_factor,
        seed=args.seed,
    )
    _emit("serve_bench", serving.format_results(results), out)
    if out is not None:
        samples = {
            f"latency_s.{config}": values
            for config, values in results.get("latency_samples", {}).items()
        }
        path = write_bench_json(
            out / "BENCH_serve_bench.json",
            "serve_bench",
            results,
            samples=samples,
            env=_fingerprint(args),
        )
        print(f"[written to {path}]")


def _run_sampler_bench(args: argparse.Namespace, out: pathlib.Path | None) -> int:
    """Time fast vs reference Dashboard engines; optionally enforce a floor.

    Emits ``BENCH_sampler_throughput.json`` (``env.clock = "wall"``) with
    per-repeat wall-time series for both engines (lower-is-better), the
    fast engine's subgraphs/sec series (higher-is-better) and the
    reference÷fast ratio at each e2e operating point (``speedup.m16`` /
    ``speedup.m50``, no bar) so bench-record / bench-gate can track the
    sampler the same way they track serving latency.
    """
    from .experiments import samplerbench
    from .obs.record import BenchRecord, environment_fingerprint

    if args.family is not None:
        return _run_sampler_zoo_bench(args, out)
    results = samplerbench.run(
        repeats=args.repeats,
        seed=args.seed,
        min_speedup=(
            args.min_speedup
            if args.min_speedup is not None
            else samplerbench.DEFAULT_MIN_SPEEDUP
        ),
    )
    _emit("sampler_bench", samplerbench.format_results(results), out)
    if out is not None:
        record = BenchRecord(
            bench="sampler_throughput",
            env=environment_fingerprint(
                seed=args.seed, extra={"clock": results["clock"]}
            ),
        )
        samples = results["samples"]
        record.add_samples(
            "sample_wall_s.fast", samples["sample_wall_s.fast"],
            unit="s", direction="lower",
        )
        record.add_samples(
            "sample_wall_s.reference", samples["sample_wall_s.reference"],
            unit="s", direction="lower",
        )
        record.add_samples(
            "throughput.fast", samples["throughput.fast"],
            unit="subgraphs/s", direction="higher",
        )
        for label in samplerbench.OPERATING_POINTS:
            record.add_samples(
                f"speedup.{label}", samples[f"speedup.{label}"],
                unit="ratio", direction="higher",
            )
        path = write_bench_json(
            out / "BENCH_sampler_throughput.json",
            "sampler_throughput",
            {k: v for k, v in results.items() if k != "samples"},
            record=record,
        )
        print(f"[written to {path}]")
    if args.min_speedup is not None and not results["meets_target"]:
        print(
            f"sampler-bench: speedup {results['speedup']:.2f}x below "
            f"--min-speedup {args.min_speedup:.2f}x"
        )
        return 1
    return 0


def _run_sampler_zoo_bench(
    args: argparse.Namespace, out: pathlib.Path | None
) -> int:
    """``sampler-bench --family ...``: the four-family zoo comparison.

    ``--family all`` times every family in
    :data:`repro.sampling.zoo.FAMILIES` (fast vs reference, interleaved)
    at a shared budget; a single family name restricts the comparison.
    Emits ``BENCH_sampler_zoo.json`` with per-(family, engine) wall-time
    series plus each family's fast-engine throughput series for the
    bench-record / bench-gate history tooling.
    """
    from .experiments import samplerbench
    from .obs.record import BenchRecord, environment_fingerprint
    from .sampling.zoo import FAMILIES

    families = FAMILIES if args.family == "all" else (args.family,)
    results = samplerbench.run_zoo(
        families=families,
        repeats=args.repeats,
        seed=args.seed,
        min_speedup=(
            args.min_speedup
            if args.min_speedup is not None
            else samplerbench.DEFAULT_ZOO_MIN_SPEEDUP
        ),
    )
    _emit("sampler_zoo", samplerbench.format_zoo_results(results), out)
    if out is not None:
        record = BenchRecord(
            bench="sampler_zoo",
            env=environment_fingerprint(
                seed=args.seed, extra={"clock": results["clock"]}
            ),
        )
        for name, values in results["samples"].items():
            if name.startswith("throughput."):
                record.add_samples(
                    name, values, unit="subgraphs/s", direction="higher"
                )
            else:
                record.add_samples(name, values, unit="s", direction="lower")
        path = write_bench_json(
            out / "BENCH_sampler_zoo.json",
            "sampler_zoo",
            {k: v for k, v in results.items() if k != "samples"},
            record=record,
        )
        print(f"[written to {path}]")
    if args.min_speedup is not None and not results["meets_target"]:
        worst = min(results["speedups"].values())
        print(
            f"sampler-bench: worst per-family speedup {worst:.2f}x below "
            f"--min-speedup {args.min_speedup:.2f}x"
        )
        return 1
    return 0


def _run_report(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    """Assemble all tables in benchmarks/results/ into one document."""
    results_dir = (
        pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    )
    if not results_dir.is_dir():
        print(
            f"no results found at {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
        return
    order = [
        "table1_datasets",
        "fig2_time_accuracy",
        "fig3_scaling_h512",
        "fig3_scaling_h1024",
        "fig4_sampler_scaling",
        "table2_deeper_gcn",
        "ablation_partitioning",
        "ablation_partitioner_gamma",
        "ablation_dashboard_eta",
        "ablation_alias_vs_dashboard",
        "ablation_degree_cap",
        "ablation_samplers",
        "extension_depth_accuracy",
        "extension_budget_scaling",
        "serving",
    ]
    files = {p.stem: p for p in sorted(results_dir.glob("*.txt"))}
    sections = [
        files.pop(name).read_text().rstrip() for name in order if name in files
    ]
    sections += [p.read_text().rstrip() for p in files.values()]
    _emit("report", "\n\n".join(sections), out)


EMBED_REPEATS = 8  # timed compute_embeddings calls of train-bench


def _run_train_bench(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    """One instrumented training run; exports the trace and its report.

    The run is small (one dataset profile, a few epochs) because the
    point is the *trace*, not the accuracy: the exported
    ``OBS_train_bench.json`` is the per-phase time breakdown the
    acceptance test checks (sample/forward/backward spans must cover
    >= 95% of iteration wall time). ``BENCH_train_bench.json`` carries
    the raw wall seconds (clock ``wall``) of every iteration
    (``trainer.iteration_seconds``), every per-epoch evaluation
    (``trainer.evaluate_seconds`` — its first sample is the cold fill of
    the full-graph inference input, kept so the series shows what moved
    into first use; ``meta.evaluate_first_sample`` says so) and
    ``EMBED_REPEATS`` calls of ``compute_embeddings`` on the trained model
    (``embed_seconds``, all warm) for bench-record / bench-gate — the
    training series of ``benchmarks/history/``.
    """
    from . import obs
    from .experiments.common import EXPERIMENT_SCALES
    from .graphs.datasets import make_dataset
    from .obs.record import BenchRecord, environment_fingerprint
    from .train.config import TrainConfig
    from .train.embedding import compute_embeddings
    from .train.trainer import GraphSamplingTrainer

    name = (args.datasets or ["ppi"])[0]
    dataset = make_dataset(name, scale=EXPERIMENT_SCALES[name], seed=args.seed)
    hidden = args.hidden or 128
    config = TrainConfig(
        hidden_dims=(hidden, hidden),
        epochs=max(1, int(round(3 * args.epoch_scale))),
        seed=args.seed,
        sampler_engine=args.sampler_engine,
        sampler_family=args.sampler_family,
        loss_norm=args.loss_norm,
        prefetch_depth=args.prefetch_depth,
        prefetch_workers=args.prefetch_workers,
    )
    obs.reset()
    with obs.enabled(), GraphSamplingTrainer(dataset, config) as trainer:
        result = trainer.train()
        for _ in range(EMBED_REPEATS):
            t0 = time.perf_counter()
            compute_embeddings(trainer.model, dataset)
            obs.metrics.observe("embed_seconds", time.perf_counter() - t0)
    doc = obs.export.trace_document("train_bench")
    doc["meta"] = {
        "dataset": name,
        "hidden": hidden,
        "epochs": config.epochs,
        "iterations": result.iterations,
        "final_val_f1": result.final_val_f1,
        "evaluate_first_sample": "cold",
    }
    _emit("train_bench", obs.export.render_report(doc), out)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        path = out / "OBS_train_bench.json"
        import json

        path.write_text(json.dumps(doc, indent=2) + "\n")
        chrome = obs.export.write_chrome_trace(out / "train_bench.chrome.json")
        # The workload (dataset, width) and the clock are part of the
        # series key: a history series never pools across either.
        record = BenchRecord.from_registry(
            "train_bench",
            env=environment_fingerprint(
                seed=args.seed,
                extra={"clock": "wall", "dataset": name, "hidden": hidden},
            ),
        )
        bench = write_bench_json(
            out / "BENCH_train_bench.json", "train_bench", doc["meta"], record=record
        )
        print(f"[written to {path}]\n[written to {chrome}]\n[written to {bench}]")


def _run_obs_report(args: argparse.Namespace, out: pathlib.Path | None) -> int:
    """Render an exported trace document (``OBS_*.json``).

    Default: the per-phase breakdown table. ``--exemplars`` renders the
    tail-exemplar table instead (the concrete slow requests retained by
    the latency histograms); ``--request <id>`` prints that request's
    span tree with its critical path marked. Both work on trace
    documents and on flight-recorder dumps (``OBS_flightdump_*.json``) —
    any file whose ``"spans"`` list holds exported span trees.
    """
    from .obs import context as obs_context
    from .obs import export as obs_export

    if args.trace is None:
        print("obs-report requires --trace PATH (an OBS_*.json export)")
        raise SystemExit(2)
    doc = obs_export.load_trace(args.trace)
    if args.request is not None:
        roots = doc.get("spans", [])
        node = obs_context.find_request(roots, args.request)
        if node is None:
            ids = obs_context.request_ids(roots)
            preview = ", ".join(ids[:10]) if ids else "(none)"
            more = f", … ({len(ids)} total)" if len(ids) > 10 else ""
            print(
                f"obs-report: request {args.request!r} not found in "
                f"{args.trace}; available ids: {preview}{more}"
            )
            return 1
        _emit("obs_request", obs_context.render_request_tree(node), out)
        return 0
    if args.exemplars:
        _emit("obs_exemplars", obs_export.render_exemplars(doc), out)
        return 0
    _emit("obs_report", obs_export.render_report(doc), out)
    return 0


def _fingerprint(args: argparse.Namespace) -> dict[str, str]:
    """Environment fingerprint for CLI-emitted bench records."""
    from .obs.record import environment_fingerprint

    return environment_fingerprint(seed=args.seed)


def _policy(args: argparse.Namespace):
    """The default regression policy with the CLI's ``--noise`` band."""
    from .obs.regress import RegressionPolicy

    return RegressionPolicy(noise_threshold=args.noise)


def _run_bench_record(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    """Append every BENCH_*.json record in --results to the history."""
    from .obs.history import HistoryStore
    from .obs.record import load_bench_records

    store = HistoryStore(args.history)
    records = load_bench_records(args.results)
    if not records:
        print(f"no BENCH_*.json records under {args.results}")
        return
    rows = []
    for record in records:
        appended = store.append(record)
        rows.append(
            {
                "bench": record.bench,
                "key": record.key,
                "metrics": len(record.series),
                "lines_appended": appended,
            }
        )
    _emit(
        "bench_record",
        format_table(rows, title=f"bench-record -> {store.root}"),
        out,
    )


def _diff_current_vs_history(args: argparse.Namespace):
    from .obs.history import HistoryStore
    from .obs.record import load_bench_records
    from .obs.regress import diff_against_history

    store = HistoryStore(args.history)
    records = load_bench_records(args.results)
    return diff_against_history(records, store, policy=_policy(args))


def _run_bench_diff(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    """Statistical diff of the current results against their history."""
    from .obs.regress import render_diff

    comparisons = _diff_current_vs_history(args)
    _emit("bench_diff", render_diff(comparisons), out)


def _run_bench_gate(args: argparse.Namespace, out: pathlib.Path | None) -> int:
    """bench-diff that exits 1 when any series gates ``regressed``."""
    from .obs.regress import VERDICT_REGRESSED, render_diff, worst_verdict

    comparisons = _diff_current_vs_history(args)
    verdict = worst_verdict(comparisons)
    text = render_diff(comparisons, title="bench gate")
    text += f"\n\nbench-gate verdict: {verdict}"
    _emit("bench_gate", text, out)
    return 1 if verdict == VERDICT_REGRESSED else 0


def _hedged_cluster_replay(*, queries: int, seed: int):
    """Small hedged cluster replay over a straggler replica set.

    Run with :mod:`repro.obs` enabled: the bursty trace plus a slow last
    replica make hedges actually fire, so the flight recorder's ring and
    the request span forest end up holding hedged duplicates with the
    winner marked — the material ``flight-dump`` and ``slo-report``
    breach dumps are expected to contain.
    """
    from .serving.cluster import ClusterConfig, ClusterServer
    from .serving.workload import bursty_trace

    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((1024, 16))
    replicas = 2

    def straggler(shard, replica, batch_size, rows):
        base = 8e-4 + 2e-8 * rows
        return base * (6.0 if replica == replicas - 1 else 1.0)

    server = ClusterServer(
        emb,
        config=ClusterConfig(
            num_shards=3,
            replicas=replicas,
            fanout=2,
            hedge=True,
            hedge_min_samples=32,
            hedge_fallback=0.005,
        ),
        service_model=straggler,
        rng=np.random.default_rng(seed + 1),
    )
    trace = bursty_trace(
        queries, 1024, skew=1.1, base_rate=800.0, burst_rate=6000.0,
        base_seconds=0.4, burst_seconds=0.1, k=10,
        rng=np.random.default_rng(seed + 2),
    )
    return server.serve_trace(trace)


def _run_flight_dump(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    """Trigger an on-demand flight-recorder dump.

    Runs one small instrumented hedged-cluster replay so the recorder's
    rings hold fresh request trees and events, then writes the
    ``OBS_flightdump_manual_*.json`` bundle to ``--out`` (default: the
    current directory). Inspect it with ``obs-report --trace <dump>
    --exemplars`` or ``--request <id>``.
    """
    from . import obs
    from .obs.flight import get_flight_recorder

    obs.reset()
    with obs.enabled():
        replay = _hedged_cluster_replay(
            queries=min(args.queries, 600), seed=args.seed
        )
        path = get_flight_recorder().dump(
            "manual", out_dir=out, reason="cli flight-dump"
        )
    print(
        f"flight-dump: replayed {replay.metrics.served} requests "
        f"({int(replay.stats.get('hedges', 0))} hedges fired)"
    )
    print(f"[written to {path}]")


def _run_slo_report(args: argparse.Namespace, out: pathlib.Path | None) -> int:
    """Evaluate the standing SLO rules against a real train+serve run.

    One small instrumented training run (the span-coverage and
    flop-drift rules read its tracer/counters; the expected flop count
    comes from the always-on kernel accounting captured over the same
    window), one serving trace replay (the deadline rule reads its
    latency samples), and one hedged cluster replay (the per-shard p99
    and staleness rules read its registry histograms). The flight
    recorder is pointed at ``--out``, so any breach auto-produces an
    ``OBS_flightdump_slo_breach_*.json`` bundle next to the report;
    ``--force-breach`` sets impossible thresholds to demonstrate that
    path on demand. Exits 1 on any breach when ``--strict``.
    """
    from . import obs
    from .experiments.common import EXPERIMENT_SCALES
    from .graphs.datasets import make_dataset
    from .kernels import accounting
    from .obs.flight import get_flight_recorder
    from .obs.slo import (
        SLOContext,
        cluster_rules,
        default_rules,
        evaluate,
        render_slo_report,
    )
    from .serving.server import EmbeddingServer, ServerConfig
    from .serving.workload import zipf_trace
    from .train.config import TrainConfig
    from .train.trainer import GraphSamplingTrainer

    name = (args.datasets or ["ppi"])[0]
    dataset = make_dataset(name, scale=EXPERIMENT_SCALES[name], seed=args.seed)
    hidden = args.hidden or 64
    config = TrainConfig(
        hidden_dims=(hidden, hidden),
        epochs=max(1, int(round(2 * args.epoch_scale))),
        seed=args.seed,
    )
    obs.reset()
    recorder = get_flight_recorder()
    if out is not None:
        recorder.out_dir = out
    dumps_before = recorder.dump_count
    with obs.enabled(), accounting.capture() as kernel_costs:
        trainer = GraphSamplingTrainer(dataset, config)
        trainer.train()
        rng = np.random.default_rng(args.seed)
        embeddings = rng.standard_normal((2048, 32))
        deadline = 0.0 if args.force_breach else args.deadline_ms / 1e3
        server = EmbeddingServer(
            embeddings,
            config=ServerConfig(max_batch=32, queue_capacity=256),
            index="cluster",
            index_kwargs={"num_clusters": 32, "probes": 8, "rng": rng},
        )
        trace = zipf_trace(
            args.queries, 2048, skew=1.1, rate=2000.0, k=10,
            rng=np.random.default_rng(args.seed + 1),
        )
        replay = server.serve_trace(trace)
        cluster_replay = _hedged_cluster_replay(
            queries=min(args.queries, 600), seed=args.seed
        )
        ctx = SLOContext(
            serving=replay.metrics,
            expected_flops=kernel_costs.total_flops,
        )
        rules = default_rules(deadline=deadline) + cluster_rules(
            per_shard_p99=0.0 if args.force_breach else 0.5,
            staleness_bound=5.0,
        )
        results = evaluate(rules, ctx)
    text = render_slo_report(results)
    if recorder.dump_count > dumps_before:
        dumps = sorted(
            pathlib.Path(recorder.out_dir or ".").glob(
                "OBS_flightdump_slo_breach_*.json"
            )
        )
        if dumps:
            text += f"\n\nflight dump (breach): {dumps[-1]}"
    text += (
        f"\n(cluster replay: {cluster_replay.metrics.served} served, "
        f"{int(cluster_replay.stats.get('hedges', 0))} hedges fired)"
    )
    _emit("slo_report", text, out)
    breached = any(not r.ok for r in results)
    return 1 if (breached and args.strict) else 0


def _run_roofline_report(
    args: argparse.Namespace, out: pathlib.Path | None
) -> None:
    """Place a real training run's kernel classes on the roofline.

    One small training run (the default dtype policy) provides the
    per-class accounting; the machine's compute and bandwidth ceilings
    are calibrated in-process, in the dtype the run computed in.
    ``--out`` writes the ``OBS_roofline.json`` artifact next to the
    rendered table.
    """
    from .experiments.common import EXPERIMENT_SCALES
    from .graphs.datasets import make_dataset
    from .kernels import accounting, roofline
    from .train.config import TrainConfig
    from .train.trainer import GraphSamplingTrainer

    name = (args.datasets or ["ppi"])[0]
    dataset = make_dataset(name, scale=EXPERIMENT_SCALES[name], seed=args.seed)
    hidden = args.hidden or 64
    config = TrainConfig(
        hidden_dims=(hidden, hidden),
        epochs=max(1, int(round(2 * args.epoch_scale))),
        seed=args.seed,
    )
    accounting.reset_totals()
    with GraphSamplingTrainer(dataset, config) as trainer:
        trainer.train()
    report = roofline.roofline_report(
        accounting.per_class_snapshot(),
        peaks=roofline.calibrate_peaks(trainer.policy.dtype),
    )
    _emit("roofline_report", roofline.render_roofline(report), out)
    if out is not None:
        path = roofline.write_roofline_json(out, report)
        print(f"[written to {path}]")


_COMMANDS = {
    "table1": _run_table1,
    "extensions": _run_extensions,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "table2": _run_table2,
    "ablations": _run_ablations,
    "serve-bench": _run_serve_bench,
    "sampler-bench": _run_sampler_bench,
    "train-bench": _run_train_bench,
    "obs-report": _run_obs_report,
    "flight-dump": _run_flight_dump,
    "bench-record": _run_bench_record,
    "bench-diff": _run_bench_diff,
    "bench-gate": _run_bench_gate,
    "slo-report": _run_slo_report,
    "roofline-report": _run_roofline_report,
    "report": _run_report,
}

#: Commands `all` skips: obs-report needs an explicit --trace, and the
#: history/SLO/roofline tooling mutates the history store or re-runs
#: workloads.
_EXCLUDED_FROM_ALL = frozenset(
    {
        "obs-report",
        "flight-dump",
        "bench-record",
        "bench-diff",
        "bench-gate",
        "slo-report",
        "roofline-report",
    }
)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the experiment runner."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["all"],
        help="which artifact to regenerate",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=None,
        help="dataset profiles (default: all four)",
    )
    parser.add_argument(
        "--hidden", type=int, default=None, help="hidden dimension override"
    )
    parser.add_argument(
        "--epoch-scale",
        type=float,
        default=1.0,
        help="scale factor on fig2's per-dataset epoch recipes",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=3000,
        help="serve-bench: number of requests in the replayed trace",
    )
    parser.add_argument(
        "--load-factor",
        type=float,
        default=None,
        help="serve-bench: offered rate as a multiple of naive capacity "
        "(default 20; --cluster mode defaults to 8x the batched single "
        "server)",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="serve-bench: run the sharded cluster experiment instead",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="serve-bench --cluster: number of index shards",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="serve-bench --cluster: replicas per shard",
    )
    parser.add_argument(
        "--fanout",
        type=int,
        default=2,
        help="serve-bench --cluster: shards probed per query",
    )
    parser.add_argument(
        "--cluster-vertices",
        type=int,
        default=1_000_000,
        help="serve-bench --cluster: embedding rows in the sharded index",
    )
    parser.add_argument(
        "--sampler-engine",
        choices=["fast", "reference"],
        default="fast",
        help="train-bench: sampler execution engine",
    )
    parser.add_argument(
        "--sampler-family",
        choices=["dashboard", "rw", "edge", "edge-indp"],
        default="dashboard",
        help="train-bench: subgraph sampler family",
    )
    parser.add_argument(
        "--loss-norm",
        choices=["none", "saint"],
        default="none",
        help="train-bench: GraphSAINT loss-normalization mode",
    )
    parser.add_argument(
        "--family",
        choices=["dashboard", "rw", "edge", "edge-indp", "all"],
        default=None,
        help="sampler-bench: run the sampler-zoo comparison for this "
        "family ('all' = every family) instead of the Dashboard-only "
        "throughput bench",
    )
    parser.add_argument(
        "--prefetch-depth",
        type=int,
        default=0,
        help="train-bench: subgraphs kept sampled ahead of the trainer "
        "(0 samples inline; same subgraphs either way)",
    )
    parser.add_argument(
        "--prefetch-workers",
        type=int,
        default=1,
        help="train-bench: sampler instances filling the pool "
        "(1 = background thread, >1 = process pool)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=12,
        help="sampler-bench: timed subgraphs per engine",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="sampler-bench: exit 1 when fast/reference speedup is below "
        "this factor",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to write result tables into",
    )
    parser.add_argument(
        "--trace",
        type=pathlib.Path,
        default=None,
        help="obs-report: path to an exported OBS_*.json / trace document",
    )
    parser.add_argument(
        "--exemplars",
        action="store_true",
        help="obs-report: render the tail-exemplar table instead of the "
        "per-phase breakdown",
    )
    parser.add_argument(
        "--request",
        default=None,
        help="obs-report: print this request id's span tree (with its "
        "critical path marked) instead of the per-phase breakdown",
    )
    parser.add_argument(
        "--results",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks") / "results",
        help="bench-record/diff/gate: directory holding BENCH_*.json files",
    )
    parser.add_argument(
        "--history",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks") / "history",
        help="bench-record/diff/gate: the append-only JSONL history store",
    )
    parser.add_argument(
        "--noise",
        type=float,
        default=0.10,
        help="bench-gate: relative median shift treated as noise",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=50.0,
        help="slo-report: serving latency deadline in milliseconds",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="slo-report: exit 1 when any SLO rule is breached",
    )
    parser.add_argument(
        "--force-breach",
        action="store_true",
        help="slo-report: evaluate with impossible thresholds so a "
        "breach (and its automatic flight dump) is guaranteed",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: run the selected experiment(s); returns exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment == "all":
        names = [n for n in sorted(_COMMANDS) if n not in _EXCLUDED_FROM_ALL]
    else:
        names = [args.experiment]
    code = 0
    for name in names:
        code = max(code, _COMMANDS[name](args, args.out) or 0)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
