"""Runs workloads and reports them; ``run.py`` is the command in front of it.

Each workload is five untraced repetitions of a timed region on fresh state,
plus one traced repetition when tracing is on.  An end-to-end value is the
median over the untraced repetitions (``setup_s`` too: every repetition sets
its state up again); a latency percentile is taken over the per-operation
samples of all of them.  Durations are reported as the quiet container would
have taken them (``calibration.py``).  See README.md for the names.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from multiprocessing import resource_tracker
from typing import Dict, List, Optional

import numpy as np

from repro import kernels

from .calibration import REFERENCE_S, Calibration
from .spans import Tracer
from .stats import percentile, summary
from .workloads import ATOL, FULL_SECONDS, REPETITIONS, RTOL, WORKLOADS, Repetition

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
clock = time.perf_counter

#: Seconds a run of five repetitions may take before it stops adding more.
#: The benchmark contract gives 92 runs 3420 s, and the 2-CPU container was
#: seen to run a third slower for an hour: a run that is late gives up its
#: last repetitions (never below MIN_REPETITIONS) and says so in its report.
RUN_BUDGET_S = 36.0
MIN_REPETITIONS = 3


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.current_backend(),
        # run.py sets these to 1 before numpy loads.
        "thread_pins": {
            variable: value
            for variable, value in os.environ.items()
            if variable.endswith("_NUM_THREADS")
        },
        "loadavg": list(os.getloadavg()),
    }


# -- one workload ------------------------------------------------------------------------------


def output_checks(expected, repetitions: List[Repetition]) -> List[str]:
    """Once per run: the first result against the reference, the rest against it."""
    failures = []
    count, sums, moments = repetitions[0].result
    want_count, want_sums, want_moments = expected
    if not (
        np.isclose(count, want_count, rtol=RTOL, atol=ATOL)
        and np.allclose(sums, want_sums, rtol=RTOL, atol=ATOL)
        and np.allclose(moments, want_moments, rtol=RTOL, atol=ATOL)
    ):
        failures.append(f"result differs from the reference (count {count} vs {want_count})")
    for number, repetition in enumerate(repetitions[1:], start=1):
        if repetition.fingerprint != repetitions[0].fingerprint:
            failures.append(f"repetition {number} is not bit-identical to repetition 0")
    return failures


def pooled(untraced: List[Repetition], kind: str, wanted: float) -> Optional[Dict[str, object]]:
    """A latency percentile in ms over all repetitions' samples of one kind."""
    samples = [sample for repetition in untraced for sample in repetition.samples.get(kind, ())]
    if not samples:
        return None
    value, used = percentile(samples, wanted)
    per_repetition = [
        percentile(repetition.samples[kind], wanted)[0] * 1e3
        for repetition in untraced
        if repetition.samples.get(kind)
    ]
    block = summary(per_repetition)
    return {
        "value": value * 1e3,
        "q1": block["q1"],
        "q3": block["q3"],
        "n": len(samples),
        "percentile_used": used,
        "values": per_repetition,
    }


def median_of(values: List[float]) -> Dict[str, object]:
    block = summary(values)
    return {
        "value": block["median"],
        "q1": block["q1"],
        "q3": block["q3"],
        "n": block["n"],
        "values": list(values),
    }


def at_reference_speed(repetition: Repetition, speed: float) -> None:
    """Turn the repetition's durations into the quiet container's seconds."""
    repetition.setup_s *= speed
    repetition.wall_s *= speed
    repetition.samples = {
        kind: [sample * speed for sample in samples]
        for kind, samples in repetition.samples.items()
    }
    repetition.seconds = {key: value * speed for key, value in repetition.seconds.items()}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: Path,
    repetitions: int = REPETITIONS,
    started: Optional[float] = None,
    calibration: Optional[Calibration] = None,
) -> Dict[str, object]:
    """Run one workload in this process; returns its report block."""
    started = clock() if started is None else started
    out.mkdir(parents=True, exist_ok=True)
    loadavg = os.getloadavg()[0]
    workload = WORKLOADS[name](seed, seconds, str(out))
    workload.prepare()
    expected = workload.reference()
    calibration = calibration or Calibration()
    # The generated inputs are the load generator's memory, not the
    # program's: keep the collector from rescanning them in timed regions.
    gc.collect()
    gc.freeze()
    inputs_s = clock() - started

    planned = repetitions + (1 if trace else 0)
    deadline = started + RUN_BUDGET_S * (seconds / FULL_SECONDS) * planned / REPETITIONS
    untraced: List[Repetition] = []
    traced: Optional[Repetition] = None
    tracer: Optional[Tracer] = None
    # The machine's speed in a repetition: the calibration work before and after it.
    readings = [calibration.seconds()]
    speeds: List[float] = []
    try:
        for number in range(planned):
            began = clock()
            # The traced repetition sits between untraced ones, so it is as warm.
            if trace and number == (repetitions + 1) // 2:
                with Tracer(label=f"{name}/{number}") as tracer:
                    repetition = traced = workload.repetition(tracer)
            else:
                repetition = workload.repetition(None)
                untraced.append(repetition)
            readings.append(calibration.seconds())
            speeds.append(2 * REFERENCE_S / (readings[-2] + readings[-1]))
            at_reference_speed(repetition, speeds[-1])
            # Stop early when one more repetition as long as this one would run late.
            now = clock()
            enough = len(untraced) >= MIN_REPETITIONS and (traced is not None) == trace
            if enough and now + (now - began) > deadline:
                break
        every = untraced + ([traced] if traced else [])
        failures = [line for repetition in every for line in repetition.failures]
        checks = output_checks(expected, every)
    finally:
        gc.unfreeze()
    # One reference check, then one identity check per further repetition.
    attempted = sum(repetition.attempted for repetition in every) + len(every)
    failed = len(failures) + len(checks)

    rates = [repetition.rows / repetition.wall_s for repetition in untraced]
    end_to_end: Dict[str, Dict[str, object]] = {
        "setup_s": median_of([repetition.setup_s for repetition in untraced]),
        "rows_per_s": median_of(rates),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "n": 1,
        },
        "failed_ops_share": {"value": failed / attempted, "n": attempted},
    }
    for metric, kind, wanted in (
        ("write_p50_ms", "write", 50),
        ("write_p99_ms", "write", 99),
        ("read_point_p50_ms", "read_point", 50),
        ("read_query_p50_ms", "read_query", 50),
    ):
        block = pooled(untraced, kind, wanted)
        if block is not None:
            end_to_end[metric] = block
    if "read_query" in untraced[0].samples:
        end_to_end["reads_per_s"] = median_of(
            [
                sum(len(repetition.samples[kind]) for kind in ("read_point", "read_query"))
                / repetition.wall_s
                for repetition in untraced
            ]
        )
    for metric in (*untraced[0].seconds, *untraced[0].counts):
        end_to_end[metric] = median_of(
            [{**repetition.seconds, **repetition.counts}[metric] for repetition in untraced]
        )

    per_layer: Dict[str, float] = {}
    if traced is not None:
        per_layer.update(traced.layers)
        per_layer.update(workload.once)
        per_layer["harness.loadavg_start"] = loadavg
        per_layer["harness.machine_speed"] = speeds[(repetitions + 1) // 2]
        per_layer["harness.trace_overhead_ratio"] = (
            traced.rows / traced.wall_s / end_to_end["rows_per_s"]["value"]
        )
        (out / f"{name}.spans.jsonl").write_text("\n".join(tracer.json_lines()) + "\n")

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "repetitions": len(untraced),
        # Imports, input generation and the reference result, once per run.
        "inputs_s": inputs_s,
        "sizes": workload.sizes,
        "digests": workload.digests,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures + checks,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        # Self time per span name in the traced repetition: where the wall went.
        "span_self_s": (
            {span: row["self_s"] for span, row in tracer.totals().items()} if tracer else {}
        ),
        # As measured, like the spans: not converted to the quiet container's seconds.
        "traced_wall_s": traced.wall_s / per_layer["harness.machine_speed"] if traced else None,
        # Per repetition, in the order run: 1 is the quiet container, 0.5 half its speed.
        "machine_speed": speeds,
        "trace_missing_targets": tracer.missing if tracer else [],
        "machine": machine(),
        "claim": None,
    }


# -- output ------------------------------------------------------------------------------------


def units(spec: Dict) -> Dict[str, str]:
    return {
        metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]
    }


def metric_lines(report: Dict, spec: Dict) -> List[str]:
    """Every metric of one workload report by name, with its unit."""
    unit = units(spec)
    speeds = ", ".join(f"{speed:.3f}" for speed in report["machine_speed"])
    lines = [f"{report['workload']} machine speed per repetition (1 = quiet container): {speeds}"]
    for name, block in report["end_to_end"].items():
        line = f"{report['workload']} {name} = {block['value']:.6g} {unit[name]}"
        if "q1" in block:
            line += f"  [q1 {block['q1']:.6g}, q3 {block['q3']:.6g}, n {block['n']}]"
        if "percentile_used" in block:
            line += f"  (p{block['percentile_used']:.4g})"
        lines.append(line)
    for name, value in report["per_layer"].items():
        lines.append(f"{report['workload']} {name} = {value:.6g} {unit.get(name, '')}".rstrip())
    return lines


def contract_line(report: Dict, spec: Dict, trace: bool) -> str:
    """The last line the benchmark contract asks of a single-workload run.

    A metric that does not apply to the workload (write latency of a batch
    job, a layer it never enters) is reported as zero.
    """
    values = {name: block["value"] for name, block in report["end_to_end"].items()}
    values.update(report["per_layer"])
    if trace:
        wanted, value_of = spec["per_layer"], lambda name: values.get(name, 0.0)
    else:
        wanted, value_of = spec["end_to_end"], values.__getitem__
    metrics = {
        metric["name"]: {"value": value_of(metric["name"]), "unit": metric["unit"]}
        for metric in wanted
    }
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def run_all(arguments) -> int:
    """Each workload in its own child process, then one combined report."""
    spec = load_spec()
    out = Path(arguments.out)
    reports = {}
    status = 0
    for workload in [entry["name"] for entry in spec["workloads"]]:
        command = [
            sys.executable,
            str(HARNESS / "run.py"),
            "--workload", workload,
            "--seed", str(arguments.seed),
            "--seconds", str(arguments.seconds),
            "--trace", "1",
            "--out", str(out),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            status = 1
            continue
        reports[workload] = json.loads((out / f"{workload}.json").read_text())
        if not reports[workload]["correct"]:
            status = 1
    report = {
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "machine": machine(),
        "workloads": reports,
        "claim": None,
    }
    (out / "report.json").write_text(json.dumps(report, indent=1))
    print(
        json.dumps(
            {
                "report": str(out / "report.json"),
                "workloads": {
                    name: {key: block[key] for key in ("correct", "attempted", "failed")}
                    for name, block in reports.items()
                },
                "claim": None,
            }
        )
    )
    return status


def stop_children() -> None:
    """End, and wait for, every process this one started.

    Shard workers are closed by their repetition; one that a failed
    repetition left behind is killed here, before the wait below, because it
    holds the tracker's pipe open.  multiprocessing's resource tracker, which
    the spawn context starts beside the first worker, would otherwise notice
    only after this process is gone that it has to end.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None, started: Optional[float] = None) -> int:
    # A terminated run unwinds like an interrupted one, through stop_children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run(argv, started)
    finally:
        stop_children()


def run(argv: Optional[List[str]], started: Optional[float]) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="Run the benchmark's workloads.")
    parser.add_argument("--workload", choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HARNESS / "out"))
    arguments = parser.parse_args(argv)
    if arguments.workload is None:
        return run_all(arguments)
    report = run_workload(
        arguments.workload,
        arguments.seed,
        arguments.seconds,
        bool(arguments.trace),
        Path(arguments.out),
        started=started,
    )
    (Path(arguments.out) / f"{arguments.workload}.json").write_text(json.dumps(report, indent=1))
    print("\n".join(metric_lines(report, spec)))
    for line in report["failures"]:
        print(f"FAILED {line}")
    print(contract_line(report, spec, bool(arguments.trace)))
    return 0
