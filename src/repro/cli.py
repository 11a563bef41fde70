"""Command-line experiment runner.

Regenerate any paper artifact without writing code::

    python -m repro.cli table1
    python -m repro.cli fig2 --epoch-scale 0.5
    python -m repro.cli fig3 --hidden 512 --datasets ppi reddit
    python -m repro.cli fig4
    python -m repro.cli table2
    python -m repro.cli ablations
    python -m repro.cli serve-bench --queries 3000
    python -m repro.cli serve-cluster --shards 4 --replicas 2
    python -m repro.cli sampler-zoo --family all
    python -m repro.cli all --out results/

Each verb has its own parser and takes only the flags it reads
(``python -m repro.cli <verb> -h`` lists them, with that verb's
defaults); a flag it does not read exits 2.

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
``DIR/<name>.txt``. The bench verbs (``serve-bench``, ``serve-cluster``,
``sampler-bench``, ``sampler-zoo``, ``train-bench``) write
``<name>.txt`` / ``BENCH_<name>.json`` / ``OBS_<name>.json`` through
:func:`repro.obs.record.write_bench`, under the bench name the pytest
bench of the same runner uses (``serving``, ``serve_cluster``,
``sampler_throughput``, ``sampler_zoo``, ``train_bench``) and the run's
``--seed``: both entry points land on one history series.

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
from .experiments.common import DATASET_NAMES, format_table
from .obs.record import MetricSeries, write_bench
from .sampling.zoo import FAMILIES

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
        hidden=args.hidden,
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
    results = table2.run(hidden=args.hidden, seed=args.seed)
    _emit("table2", table2.format_results(results), out)


def _run_ablations(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    pieces = [
        ("X1: feature-only partitioning", ablations.run_partitioning()),
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


def _bench(
    name: str, results: dict, text: str, args: argparse.Namespace, out: pathlib.Path | None
) -> None:
    """Print a bench run's table; with ``--out``, write its three files
    (``write_bench``, as the pytest benches do)."""
    print(text)
    if out is not None:
        for path in write_bench(out, name, results, seed=args.seed, text=text):
            print(f"[written to {path}]")


def _run_serve_bench(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    """Replay the Zipf query trace through the serving configurations."""
    results = serving.run(
        num_queries=args.queries, load_factor=args.load_factor, seed=args.seed
    )
    _bench("serving", results, serving.format_results(results), args, out)


def _run_serve_cluster(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    """The sharded/replicated cluster experiment: million-vertex Zipf
    throughput + recall, bursty hedging and a streaming-upsert soak under
    the cluster SLOs. Its OBS file is the hedged replay's request span
    forest + tail exemplars (what ``obs-report --exemplars`` /
    ``--request`` read)."""
    results = serving.run_cluster(
        num_queries=args.queries,
        num_vertices=args.cluster_vertices,
        num_shards=args.shards,
        replicas=args.replicas,
        fanout=args.fanout,
        load_factor=args.load_factor,
        soak_vertices=min(50_000, args.cluster_vertices),
        seed=args.seed,
    )
    _bench("serve_cluster", results, serving.format_cluster_results(results), args, out)


def _run_sampler_bench(args: argparse.Namespace, out: pathlib.Path | None) -> int:
    """Time fast vs reference Dashboard engines; optionally enforce a floor.

    Writes the ``sampler_throughput`` bench (the series
    :func:`repro.experiments.samplerbench.run` states) so bench-record /
    bench-gate track the sampler the same way they track serving latency.
    """
    from .experiments import samplerbench

    results = samplerbench.run(
        repeats=args.repeats,
        seed=args.seed,
        min_speedup=(
            args.min_speedup
            if args.min_speedup is not None
            else samplerbench.DEFAULT_MIN_SPEEDUP
        ),
    )
    _bench("sampler_throughput", results, samplerbench.format_results(results), args, out)
    if args.min_speedup is not None and not results["meets_target"]:
        print(
            f"sampler-bench: speedup {results['speedup']:.2f}x below "
            f"--min-speedup {args.min_speedup:.2f}x"
        )
        return 1
    return 0


def _run_sampler_zoo(args: argparse.Namespace, out: pathlib.Path | None) -> int:
    """The four-family sampler-zoo comparison.

    ``--family all`` times every family in
    :data:`repro.sampling.zoo.FAMILIES` (fast vs reference, interleaved)
    at a shared budget; a single family name restricts the comparison.
    Writes the ``sampler_zoo`` bench: per-(family, engine) wall-time
    series plus each family's fast-engine throughput series.
    """
    from .experiments import samplerbench

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
    _bench("sampler_zoo", results, samplerbench.format_zoo_results(results), args, out)
    if args.min_speedup is not None and not results["meets_target"]:
        worst = min(results["speedups"].values())
        print(
            f"sampler-zoo: worst per-family speedup {worst:.2f}x below "
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


def _training_setup(args: argparse.Namespace, *, epochs: int, **fields):
    """``(dataset, config)`` of a verb's one small training run: its
    ``--datasets`` profile at the experiment scale, a two-layer
    ``--hidden`` model and ``epochs`` scaled by ``--epoch-scale``."""
    from .experiments.common import EXPERIMENT_SCALES
    from .graphs.datasets import make_dataset
    from .train.config import TrainConfig

    name = args.dataset
    dataset = make_dataset(name, scale=EXPERIMENT_SCALES[name], seed=args.seed)
    config = TrainConfig(
        hidden_dims=(args.hidden, args.hidden),
        epochs=max(1, int(round(epochs * args.epoch_scale))),
        seed=args.seed,
        **fields,
    )
    return dataset, config


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
    from .kernels.ops import blas_threads
    from .train.embedding import compute_embeddings
    from .train.trainer import GraphSamplingTrainer

    dataset, config = _training_setup(
        args,
        epochs=3,
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
        "dataset": args.dataset,
        "hidden": args.hidden,
        "epochs": config.epochs,
        "iterations": result.iterations,
        "final_val_f1": result.final_val_f1,
        "evaluate_first_sample": "cold",
    }
    histograms = obs.metrics.get_registry().histograms
    results = {
        **doc["meta"],
        # The workload (dataset, width), the clock and the threads
        # OpenBLAS runs one call on are part of the series key: a history
        # series never pools across any of them (a pinned run pairs a
        # layer's products on two threads, an unpinned one does not).
        "clock": "wall",
        "key_fields": {
            "dataset": args.dataset,
            "hidden": args.hidden,
            "blas_threads": blas_threads(),
        },
        "series": {
            name: MetricSeries(list(histograms[name].samples))
            for name in ("trainer.iteration_seconds", "trainer.evaluate_seconds", "embed_seconds")
        },
        "trace": doc,
    }
    _bench("train_bench", results, obs.export.render_report(doc), args, out)
    if out is not None:
        chrome = obs.export.write_chrome_trace(out / "train_bench.chrome.json")
        print(f"[written to {chrome}]")


def _run_obs_report(args: argparse.Namespace, out: pathlib.Path | None) -> int:
    """Render an exported trace document (``OBS_*.json``).

    Default: the per-phase breakdown table. ``--exemplars`` renders the
    tail-exemplar table instead (the concrete slow requests retained by
    the latency histograms); ``--request <id>`` prints that request's
    span tree with its critical path marked. Both work on trace
    documents and on flight-recorder dumps (``OBS_flightdump_*.json``) —
    any file whose ``"spans"`` list holds exported span trees. A missing
    or unparsable file is one ``cannot read`` line and exit code 1.
    """
    from .obs import context as obs_context
    from .obs import export as obs_export

    try:
        doc = obs_export.load_trace(args.trace)
    except (OSError, ValueError) as exc:  # missing, unreadable, truncated JSON
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        print(f"obs-report: cannot read {args.trace}: {reason}")
        return 1
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


def _load_records(args: argparse.Namespace):
    """The records under ``--results``; each BENCH file that could not be
    parsed or whose series name no clock is named on stdout with its
    reason and left out (the run goes on)."""
    from .obs.record import load_bench_records

    records, skipped = load_bench_records(args.results)
    for reason in skipped:
        print(f"warning: skipped {reason}")
    return records


def _run_bench_record(args: argparse.Namespace, out: pathlib.Path | None) -> None:
    """Append every BENCH_*.json record in --results to the history."""
    from .obs.history import HistoryStore

    store = HistoryStore(args.history)
    records = _load_records(args)
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
    from .obs.regress import RegressionPolicy, diff_against_history

    return diff_against_history(
        _load_records(args),
        HistoryStore(args.history),
        policy=RegressionPolicy(noise_threshold=args.noise),
    )


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
    """Small replay of the serve-cluster experiment's bursty-hedging
    scenario (:func:`repro.experiments.serving.hedging_scenario`) over a
    1 024-vertex mixture corpus.

    Run with :mod:`repro.obs` enabled: the bursty trace plus a slow last
    replica make hedges actually fire, so the flight recorder's ring and
    the request span forest end up holding hedged duplicates with the
    winner marked — the material ``flight-dump`` and ``slo-report``
    breach dumps are expected to contain.
    """
    emb = serving.mixture_embeddings(1024, 32, seed=seed)
    server, trace = serving.hedging_scenario(emb, num_queries=queries, seed=seed)
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

    One small instrumented training run (the span-coverage rule reads
    its tracer), one serving trace replay (the deadline rule reads its
    latency samples), and one hedged cluster replay (the per-shard p99
    and staleness rules read its registry histograms). The flight
    recorder is pointed at ``--out``, so any breach auto-produces an
    ``OBS_flightdump_slo_breach_*.json`` bundle next to the report;
    ``--force-breach`` sets impossible thresholds to demonstrate that
    path on demand. Exits 1 on any breach when ``--strict``.
    """
    from . import obs
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
    from .train.trainer import GraphSamplingTrainer

    dataset, config = _training_setup(args, epochs=2)
    obs.reset()
    recorder = get_flight_recorder()
    if out is not None:
        recorder.out_dir = out
    dumps_before = recorder.dump_count
    with obs.enabled():
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
        ctx = SLOContext(serving=replay.metrics)
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
    from .kernels import accounting, roofline
    from .train.trainer import GraphSamplingTrainer

    dataset, config = _training_setup(args, epochs=2)
    accounting.reset_per_class()
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


#: Every flag a verb can take, with its argparse keywords; a verb's
#: overrides (``_VERBS``) replace some of them.
_FLAGS: dict[str, dict] = {
    "--seed": dict(type=int, default=0, help="random seed"),
    "--datasets": dict(
        nargs="+", default=None, help="dataset profiles (default: all four)"
    ),
    "--hidden": dict(type=int, default=128, help="hidden dimension"),
    "--epoch-scale": dict(
        type=float, default=1.0, help="scale factor on the epoch recipe"
    ),
    "--queries": dict(
        type=int, default=3000, help="number of requests in the replayed trace"
    ),
    "--load-factor": dict(
        type=float,
        default=20.0,
        help="offered rate as a multiple of the naive server's capacity",
    ),
    "--shards": dict(type=int, default=4, help="number of index shards"),
    "--replicas": dict(type=int, default=2, help="replicas per shard"),
    "--fanout": dict(type=int, default=2, help="shards probed per query"),
    "--cluster-vertices": dict(
        type=int, default=1_000_000, help="embedding rows in the sharded index"
    ),
    "--sampler-family": dict(
        choices=FAMILIES, default="dashboard", help="subgraph sampler family"
    ),
    "--loss-norm": dict(
        choices=["none", "saint"], default="none",
        help="GraphSAINT loss-normalization mode",
    ),
    "--family": dict(
        choices=[*FAMILIES, "all"], default="all",
        help="sampler family to compare ('all' = every family)",
    ),
    "--prefetch-depth": dict(
        type=int,
        default=0,
        help="subgraphs kept sampled ahead of the trainer "
        "(0 samples inline; same subgraphs either way)",
    ),
    "--prefetch-workers": dict(
        type=int,
        default=1,
        help="sampler instances filling the pool "
        "(1 = background thread, >1 = process pool)",
    ),
    "--repeats": dict(type=int, default=12, help="timed subgraphs per engine"),
    "--min-speedup": dict(
        type=float,
        default=None,
        help="exit 1 when the fast/reference speedup is below this factor",
    ),
    "--out": dict(
        type=pathlib.Path, default=None,
        help="directory to write result tables into",
    ),
    "--trace": dict(
        type=pathlib.Path,
        required=True,
        help="path to an exported OBS_*.json / trace document",
    ),
    "--exemplars": dict(
        action="store_true",
        help="render the tail-exemplar table instead of the per-phase breakdown",
    ),
    "--request": dict(
        default=None,
        help="print this request id's span tree (with its critical path "
        "marked) instead of the per-phase breakdown",
    ),
    "--results": dict(
        type=pathlib.Path,
        default=pathlib.Path("benchmarks") / "results",
        help="directory holding BENCH_*.json files",
    ),
    "--history": dict(
        type=pathlib.Path,
        default=pathlib.Path("benchmarks") / "history",
        help="the append-only JSONL history store",
    ),
    "--noise": dict(
        type=float, default=0.10,
        help="relative median shift treated as noise",
    ),
    "--deadline-ms": dict(
        type=float, default=50.0,
        help="serving latency deadline in milliseconds",
    ),
    "--strict": dict(
        action="store_true", help="exit 1 when any SLO rule is breached"
    ),
    "--force-breach": dict(
        action="store_true",
        help="evaluate with impossible thresholds so a breach (and its "
        "automatic flight dump) is guaranteed",
    ),
}

#: The one-run verbs train on one dataset profile.
_ONE_DATASET = dict(
    dest="dataset", nargs=None, default="ppi", choices=DATASET_NAMES,
    help="dataset profile",
)
_TRAIN_RUN = ("--datasets", "--hidden", "--epoch-scale", "--seed")
_HISTORY = ("--results", "--history")

#: verb -> (handler, the flags it reads, per-flag keyword overrides).
#: Every verb also takes ``--out``.
_VERBS: dict[str, tuple] = {
    "table1": (_run_table1, ("--seed",), {}),
    "extensions": (_run_extensions, ("--seed",), {}),
    "ablations": (_run_ablations, ("--seed",), {}),
    "fig2": (_run_fig2, _TRAIN_RUN, {}),
    "fig3": (
        _run_fig3,
        ("--datasets", "--hidden", "--seed"),
        {"--hidden": dict(default=None, help="hidden dimension (unset: sweep 512 and 1024)")},
    ),
    "fig4": (_run_fig4, ("--datasets", "--seed"), {}),
    "table2": (_run_table2, ("--hidden", "--seed"), {}),
    "serve-bench": (_run_serve_bench, ("--queries", "--load-factor", "--seed"), {}),
    "serve-cluster": (
        _run_serve_cluster,
        (
            "--queries", "--load-factor", "--seed", "--shards", "--replicas",
            "--fanout", "--cluster-vertices",
        ),
        {
            "--load-factor": dict(
                default=8.0,
                help="offered rate as a multiple of the batched single "
                "server's capacity",
            )
        },
    ),
    "sampler-bench": (_run_sampler_bench, ("--repeats", "--min-speedup", "--seed"), {}),
    "sampler-zoo": (
        _run_sampler_zoo, ("--repeats", "--min-speedup", "--seed", "--family"), {}
    ),
    "train-bench": (
        _run_train_bench,
        (
            *_TRAIN_RUN, "--sampler-family", "--loss-norm",
            "--prefetch-depth", "--prefetch-workers",
        ),
        {"--datasets": _ONE_DATASET},
    ),
    "obs-report": (_run_obs_report, ("--trace", "--exemplars", "--request"), {}),
    "flight-dump": (_run_flight_dump, ("--queries", "--seed"), {}),
    "bench-record": (_run_bench_record, _HISTORY, {}),
    "bench-diff": (_run_bench_diff, (*_HISTORY, "--noise"), {}),
    "bench-gate": (_run_bench_gate, (*_HISTORY, "--noise"), {}),
    "slo-report": (
        _run_slo_report,
        (*_TRAIN_RUN, "--queries", "--deadline-ms", "--strict", "--force-breach"),
        {"--datasets": _ONE_DATASET, "--hidden": dict(default=64)},
    ),
    "roofline-report": (
        _run_roofline_report,
        _TRAIN_RUN,
        {"--datasets": _ONE_DATASET, "--hidden": dict(default=64)},
    ),
    "report": (_run_report, (), {}),
}

#: What ``all`` runs, each verb with its own defaults (and ``all``'s
#: ``--seed``): the paper artifacts and benches, not the trace,
#: history, SLO or roofline tooling.
_ALL = (
    "ablations", "extensions", "fig2", "fig3", "fig4", "report",
    "sampler-bench", "serve-bench", "table1", "table2", "train-bench",
)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the experiment runner: one subparser per verb."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the paper's tables and figures.",
    )
    verbs = parser.add_subparsers(dest="experiment", required=True)
    for verb, (_, flags, overrides) in _VERBS.items():
        sub = verbs.add_parser(
            verb, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        for flag in (*flags, "--out"):
            sub.add_argument(flag, **{**_FLAGS[flag], **overrides.get(flag, {})})
    sub = verbs.add_parser("all", help="run " + ", ".join(_ALL))
    for flag in ("--seed", "--out"):
        sub.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: run the selected experiment(s); returns exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment != "all":
        return _VERBS[args.experiment][0](args, args.out) or 0
    code = 0
    for verb in _ALL:
        handler, flags, _ = _VERBS[verb]
        seed = ["--seed", str(args.seed)] if "--seed" in flags else []
        code = max(code, handler(parser.parse_args([verb, *seed]), args.out) or 0)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
