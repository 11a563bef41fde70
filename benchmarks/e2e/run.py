"""e2e-bench: train -> embed -> index -> serve, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                       # all workloads, both runs
    python3 benchmarks/e2e/run.py --workload ppi_small  # one workload, untraced
    python3 benchmarks/e2e/run.py --workload ppi_small --trace 1 --seed 2

One workload runs in this process; without ``--workload`` each workload
gets a fresh subprocess per run (so ``peak_rss_mb`` is per workload), the
untraced run for the end-to-end metrics and the traced run for the
per-layer ones, merged into ``benchmarks/e2e/out/BENCH_e2e.json``.

The last line of standard output is the machine-readable result.
"""

from __future__ import annotations

import os

# BLAS threading is the noise source on a 2-core host (10.9-15.5 ms per
# PPI iteration with OpenBLAS left alone, 11.9-12.3 ms pinned), and Fig. 2
# is a serial comparison anyway. Must happen before numpy is imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SCHEMA = "e2e-bench/1"
QUICK_SECONDS = 3.0

sys.path[:0] = [str(HERE), str(ROOT / "src")]


def pin_allocator() -> bool:
    """Keep freed memory in the process heap instead of returning it.

    glibc serves every array above 128 KB by mmap and unmaps it on free,
    so each large temporary is page-faulted in again: 10-12% of a run was
    system time, and in this VM what a page fault costs follows the host
    (the stages with the largest temporaries, embed and the saturating
    replay, were the ones that spread). Pinned like the BLAS threads: the
    same for every commit measured; README, "Noise".
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False  # not glibc: nothing to pin
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    return all((
        mallopt(m_mmap_threshold, 1 << 30),
        mallopt(m_trim_threshold, (1 << 31) - 1),
        mallopt(m_top_pad, 64 << 20),
    ))


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"e2e-bench measures the program in {ROOT / 'src'}, which is missing")
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload, in this process (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured time per run (default {run_seconds}, --quick {QUICK_SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: install the span wrappers and report the per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="harness self-test: small sizes, all checks on, bounds meaningless")
    ap.add_argument("--out", type=Path, default=None, help="where to write the result document")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(run_seconds)
    OUT.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


def run_one(args) -> int:
    import numpy

    from pipeline import run_workload
    from tracing import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    if args.quick:
        spec = spec.quick_variant()
    pinned = pin_allocator()
    rec = Recorder(enabled=bool(args.trace))
    doc = run_workload(spec, args.seed, args.seconds, rec)
    doc.update(
        schema=SCHEMA, quick=args.quick,
        env={**THREAD_ENV, "python": platform.python_version(),
             "numpy": numpy.__version__, "nproc": os.cpu_count(),
             "allocator_pinned": pinned},
    )
    if rec.enabled:
        rec.dump(OUT / f"TRACE_{spec.name}.json")
    path = args.out or OUT / f"{spec.name}.trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1))
    print_table(doc)
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in doc["metrics"].items()},
    }))
    return 0 if doc["correct"] else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    merged = {"schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
              "quick": args.quick, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = merged["workloads"][name] = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            path = OUT / f"{name}.trace{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(path)]
            proc = subprocess.run(cmd + (["--quick"] if args.quick else []))
            status = status or proc.returncode
            if proc.returncode in (0, 1) and path.exists():
                entry[section] = json.loads(path.read_text())
    path = args.out or OUT / "BENCH_e2e.json"
    path.write_text(json.dumps(merged, indent=1))
    print(f"[written to {path}]")
    return status


def print_table(doc: dict) -> None:
    kind = "per-layer (traced run)" if doc["trace"] else "end-to-end (untraced run)"
    print(f"\n{doc['workload']}  seed={doc['seed']}  seconds={doc['seconds']}  {kind}")
    print(f"  {'metric':<38}{'value':>14}  {'unit':<8}{'clock':<7}"
          f"{'median':>12}{'min':>12}{'max':>12}{'n':>7}")
    for name, m in doc["metrics"].items():
        beside = "".join(f"{m[k]:>12.5g}" if k in m else " " * 12
                         for k in ("median", "min", "max"))
        print(f"  {name:<38}{m['value']:>14.6g}  {m['unit']:<8}{m['clock']:<7}"
              f"{beside}{m['samples']:>7}")
    for key, value in doc["info"].items():
        if key.endswith("unattributed_share"):
            print(f"  {key:<38}{value:>14.6g}  share   wall")
    for c in doc["checks"]:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    print(f"  attempted={doc['attempted']} failed={doc['failed']} correct={doc['correct']}")


if __name__ == "__main__":
    sys.exit(main())
