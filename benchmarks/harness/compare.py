"""Compare reports of two commits: ``compare.py A.json B.json [A2.json B2.json ...]``.

Each argument is a report written by ``run.py`` (all workloads, or one).
With one pair the samples of a metric are its per-repetition values inside
the two reports; with several pairs (run them alternately, A first then B
first) they are the reports' values, one per report, paired in order.  For
every workload and end-to-end metric the output gives both medians with
quartiles, the ratio with its base, and a verdict from ``stats.verdict``.
Exit code 1 on any ``worse`` verdict or a higher ``failed_ops_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

if __name__ == "__main__":  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness.stats import verdict

ROOT = Path(__file__).resolve().parents[2]

#: Bounds of the end-to-end metrics that only some workloads have.  The
#: benchmark contract wants every ``end_to_end`` metric of BENCHMARK.json from
#: every workload and takes no ``bound`` under ``per_layer``, so their names,
#: units and directions are listed there and only their bounds are here: a
#: tenth for timings and rates (all of them repeated within a tenth between
#: the two run sets in ``baseline/``), exact for counts.
WORKLOAD_BOUNDS: Dict[str, float] = {
    "write_p50_ms": 0.10,
    "write_p99_ms": 0.10,
    "read_point_p50_ms": 0.10,
    "read_query_p50_ms": 0.10,
    "reads_per_s": 0.10,
    "recover_s": 0.10,
    "disk_bytes_per_update": 0.0,
    "failed_ops_share": 0.0,
}


def bounds() -> Dict[str, Tuple[str, float]]:
    """Metric name -> (direction, bound), directions all from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {
        metric["name"]: (metric["better"], metric["bound"]) for metric in spec["end_to_end"]
    }
    direction = {metric["name"]: metric["better"] for metric in spec["per_layer"]}
    for name, bound in WORKLOAD_BOUNDS.items():
        table[name] = (direction[name], bound)
    return table


def workloads_of(path: str) -> Dict[str, Dict]:
    document = json.loads(Path(path).read_text())
    return document["workloads"] if "workloads" in document else {document["workload"]: document}


def samples(reports: List[Dict[str, Dict]], workload: str, metric: str) -> Optional[List[float]]:
    """One value per report, or the single report's per-repetition values."""
    blocks = [report[workload]["end_to_end"].get(metric) for report in reports]
    if any(block is None for block in blocks):
        return None
    if len(blocks) == 1:
        return list(blocks[0].get("values", [blocks[0]["value"]]))
    return [block["value"] for block in blocks]


def compare(base_paths: List[str], new_paths: List[str]) -> Tuple[List[Dict], int]:
    base = [workloads_of(path) for path in base_paths]
    new = [workloads_of(path) for path in new_paths]
    rows, status = [], 0
    table = bounds()
    for workload in base[0]:
        if any(workload not in report for report in base + new):
            continue
        for metric, (better, bound) in table.items():
            a, b = samples(base, workload, metric), samples(new, workload, metric)
            if a is None or b is None:
                continue
            row = verdict(a, b, better, bound, paired=len(base) > 1)
            row.update(workload=workload, metric=metric)
            rows.append(row)
            if row["verdict"] == "worse":
                status = 1
    return rows, status


def render(row: Dict) -> str:
    a, b = row["base"], row["new"]
    return (
        f"{row['workload']:<15}{row['metric']:<23}"
        f"{a['median']:>11.5g} [{a['q1']:.5g}, {a['q3']:.5g}] -> "
        f"{b['median']:>11.5g} [{b['q1']:.5g}, {b['q3']:.5g}]  "
        f"x{row['ratio']:.3f} of base, spread {row['spread']:.3f}, "
        f"bound {row['bound']:.2f}: {row['verdict']}"
    )


def main(argv: List[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__)
        return 2
    rows, status = compare(argv[0::2], argv[1::2])
    for row in rows:
        print(render(row))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
