"""Compare two e2e-bench results metric by metric against the bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two runs of the
same code), ``B`` the candidate. One row per workload x end-to-end
metric: both values, the ratio B/A, how much worse B is in the metric's
own direction as a share of A, and the verdict against the bound fixed in
``BENCHMARK.json``. Exits 1 if any metric is worse by more than its
bound or B has a failed check. Each file is a ``BENCH_e2e.json`` or the
document of a single untraced run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def end_to_end(path: str) -> dict[str, dict]:
    """workload -> result document of its untraced run."""
    doc = json.loads(Path(path).read_text())
    if "workloads" in doc:
        return {w: runs["end_to_end"] for w, runs in doc["workloads"].items()
                if "end_to_end" in runs}
    if doc.get("trace"):
        raise SystemExit(f"{path}: a traced run carries no end-to-end metrics")
    return {doc["workload"]: doc}


def compare(base: dict, cand: dict, catalogue: list[dict]) -> tuple[list[str], int]:
    rows, breaches = [], 0
    for workload in base:
        if workload not in cand:
            continue
        a_doc, b_doc = base[workload], cand[workload]
        if not b_doc["correct"] or b_doc["failed"]:
            breaches += 1
            rows.append(f"{workload:<24}{'(output checks)':<22}"
                        f"{b_doc['failed']} failed of {b_doc['attempted']}  BREACH")
        for spec in catalogue:
            name = spec["name"]
            a, b = a_doc["metrics"][name]["value"], b_doc["metrics"][name]["value"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            ok = worse <= spec["bound"]
            breaches += not ok
            rows.append(
                f"{workload:<24}{name:<22}{a:>12.5g}{b:>12.5g}{b / a:>8.3f}"
                f"{worse:>+9.1%}{spec['bound']:>7.0%}  {'ok' if ok else 'BREACH'}"
            )
    return rows, breaches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows, breaches = compare(end_to_end(argv[0]), end_to_end(argv[1]), catalogue)
    print(f"{'workload':<24}{'metric':<22}{'A (base)':>12}{'B':>12}{'B/A':>8}"
          f"{'worse':>9}{'bound':>7}")
    print("\n".join(rows))
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
