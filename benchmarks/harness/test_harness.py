"""The harness checks itself at smoke scale (collected by the tier-1 command)."""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import kernels
from repro.ivm import FIVM

from . import compare, runner, stats, workloads
from .calibration import REFERENCE_S, Calibration
from .spans import TARGETS, Tracer

SPEC = runner.load_spec()
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload once untraced and once traced, at about a hundredth of full size."""
    out = tmp_path_factory.mktemp("harness")
    # A one-level tree and an eager reader: enough calls of every kind in a
    # timed region that lasts milliseconds.
    depth, workloads.TREE_DEPTH = workloads.TREE_DEPTH, 1
    think, workloads.THINK_S = workloads.THINK_S, 0.0005
    # The calibration work would take a third of the smoke run: a machine at speed 1.
    quiet = SimpleNamespace(seconds=lambda: REFERENCE_S)
    try:
        reports = {
            name: runner.run_workload(name, 5, 0.2, True, out, repetitions=1, calibration=quiet)
            for name in WORKLOAD_NAMES
        }
    finally:
        workloads.TREE_DEPTH = depth
        workloads.THINK_S = think
    return out, reports


def test_every_named_workload_and_metric_is_emitted_with_a_unit(smoke):
    _out, reports = smoke
    assert sorted(reports) == sorted(workloads.WORKLOADS)
    measured = set()
    for name, report in reports.items():
        assert report["correct"], report["failures"]
        assert report["failed"] == 0 and report["attempted"] >= 1
        assert report["claim"] is None and not report["trace_missing_targets"]
        measured |= set(report["end_to_end"]) | set(report["per_layer"])
        for trace in (False, True):
            line = json.loads(runner.contract_line(report, SPEC, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            assert list(line["metrics"]) == [metric["name"] for metric in wanted]
            for metric in wanted:
                block = line["metrics"][metric["name"]]
                assert block["unit"] == metric["unit"] and np.isfinite(block["value"])
        for metric in SPEC["end_to_end"]:
            assert report["end_to_end"][metric["name"]]["value"] > 0
    named = {metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert named <= measured, sorted(named - measured)
    assert set(compare.bounds()) <= named
    assert reports["serve_churn"]["per_layer"]["durability.replayed_batches"] == (
        reports["serve_churn"]["sizes"]["replay_batches"]
    )
    assert all(report["per_layer"]["data.full_encodes"] == 0 for report in reports.values())


def test_self_times_add_up_to_each_root_span(smoke):
    out, _reports = smoke
    for name in WORKLOAD_NAMES:
        spans = [json.loads(line) for line in (out / f"{name}.spans.jsonl").read_text().splitlines()]
        assert spans and all(span["end"] >= span["start"] for span in spans)
        self_time = {span["id"]: span["end"] - span["start"] for span in spans}
        root_of = {}
        for span in spans:  # parents are recorded before their children
            parent = span["parent"]
            root_of[span["id"]] = span["id"] if parent is None else root_of[parent]
            if parent is not None:
                assert spans[parent]["thread"] == span["thread"]
                assert spans[parent]["trace"] == span["trace"]
                self_time[parent] -= span["end"] - span["start"]
        assert min(self_time.values()) > -1e-9
        below_root = {}
        for identifier, root in root_of.items():
            below_root[root] = below_root.get(root, 0.0) + self_time[identifier]
        for root, total in below_root.items():
            assert total == pytest.approx(spans[root]["end"] - spans[root]["start"], abs=1e-9)


def test_tracer_puts_every_original_back():
    def current():
        found = []
        for module_name, owner_name, attribute, _span in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
                owner = next(k for k in owner.__mro__ if attribute in vars(k))
            found.append(vars(owner)[attribute])
        return found

    before = current()
    enabled = kernels.kernel_stats_enabled()
    with Tracer() as tracer:
        assert not tracer.missing
        assert kernels.kernel_stats_enabled()
        assert all(now is not then for now, then in zip(current(), before))
    assert all(now is then for now, then in zip(current(), before))
    assert kernels.kernel_stats_enabled() == enabled


def test_reference_agrees_with_the_repository_ground_truth(tmp_path):
    workload = workloads.ServeChurn(7, 0.2, str(tmp_path))
    workload.prepare()
    maintainer = FIVM(workload.database, workload.query, workloads.IVM_FEATURES)
    maintainer.apply_batch(workload.preload + workload.updates)
    truth = maintainer.recompute_statistics()
    count, sums, moments = workload.reference()
    assert np.isclose(count, truth.count, rtol=workloads.RTOL, atol=workloads.ATOL)
    assert np.allclose(sums, truth.sums, rtol=workloads.RTOL, atol=workloads.ATOL)
    assert np.allclose(moments, truth.moments, rtol=workloads.RTOL, atol=workloads.ATOL)


def test_durations_are_converted_to_the_quiet_containers_seconds():
    repetition = workloads.Repetition(
        setup_s=2.0, wall_s=4.0, rows=8, attempted=1, failures=[], fingerprint="", result=(),
        samples={"write": [1.0, 3.0]}, seconds={"recover_s": 1.0}, counts={"disk_bytes_per_update": 7.0},
    )
    assert 0.2 < REFERENCE_S / Calibration().seconds() < 5  # this machine against the quiet container
    runner.at_reference_speed(repetition, 0.5)  # the machine ran at half speed
    assert (repetition.setup_s, repetition.wall_s) == (1.0, 2.0)
    assert repetition.samples == {"write": [0.5, 1.5]}
    assert repetition.seconds == {"recover_s": 0.5}
    assert repetition.counts == {"disk_bytes_per_update": 7.0} and repetition.rows == 8


def test_percentile_keeps_ten_samples_beyond():
    samples = list(range(1000))
    assert stats.percentile(samples, 99) == (989, 98.9)
    assert stats.percentile(samples, 50) == (500, 50.0)
    value, used = stats.percentile(list(range(100)), 99)
    assert (value, used) == (89, 89.0)
    assert stats.percentile(list(range(15)), 99) == (7, pytest.approx(100 * 7 / 15))
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def report_file(path: Path, rates, failed_share=0.0, rss=400.0) -> str:
    document = {
        "workload": "ingest_bulk",
        "end_to_end": {
            "rows_per_s": runner.median_of(list(rates)),
            "peak_rss_mb": {"value": rss, "n": 1},
            "failed_ops_share": {"value": failed_share, "n": 1},
        },
    }
    path.write_text(json.dumps(document))
    return str(path)


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    rates = [100_000.0, 101_000.0, 99_500.0, 100_400.0, 99_900.0]
    same_all = {"rows_per_s": "same", "peak_rss_mb": "same", "failed_ops_share": "same"}
    base = report_file(tmp_path / "a.json", rates)
    same = report_file(tmp_path / "b.json", [rate * 1.01 for rate in rates])
    # A fifth worse: beyond peak_rss_mb's bound of 0.10, within rows_per_s's 0.25.
    fifth = report_file(tmp_path / "g.json", [rate * 0.8 for rate in rates], rss=480.0)
    slow = report_file(tmp_path / "c.json", [rate * 0.7 for rate in rates])
    noisy = report_file(tmp_path / "d.json", [60_000.0, 140_000.0, 99_000.0, 80_000.0, 125_000.0])
    failing = report_file(tmp_path / "e.json", rates, failed_share=0.01)

    def verdicts(*paths):
        rows, status = compare.compare(list(paths[0::2]), list(paths[1::2]))
        return {row["metric"]: row["verdict"] for row in rows}, status

    assert verdicts(base, same) == (same_all, 0)
    assert verdicts(base, fifth) == ({**same_all, "peak_rss_mb": "worse"}, 1)
    assert verdicts(base, slow) == ({**same_all, "rows_per_s": "worse"}, 1)
    assert verdicts(base, noisy)[0]["rows_per_s"] == "unresolved"
    assert verdicts(base, failing) == ({**same_all, "failed_ops_share": "worse"}, 1)
    assert compare.main([base, slow]) == 1
    assert "worse" in capsys.readouterr().out
    # Ten pairs: a 40% gain in every pair is a gain; a gain in six of ten is not.
    pairs = [base, report_file(tmp_path / "f.json", [rate * 1.4 for rate in rates])] * 10
    assert verdicts(*pairs)[0]["rows_per_s"] == "better"
    assert stats.verdict(
        rates * 2, [r * (1.4 if i < 6 else 0.99) for i, r in enumerate(rates * 2)],
        "higher", 0.25, paired=True,
    )["verdict"] == "unresolved"
