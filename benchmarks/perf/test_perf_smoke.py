"""Smoke-run the perf harness at 10x-reduced sizes.

Not part of tier-1 (``testpaths`` excludes ``benchmarks/``); CI invokes
this file explicitly so a refactor can't silently break the harness the
before/after numbers depend on.
"""

import json

import pytest

from perf_harness import (
    bench_campaign,
    bench_fabric_hops,
    bench_kernel_events,
    bench_kernel_wakeups,
    bench_lanai_interpreter,
    merge_into,
)


@pytest.mark.perf
def test_kernel_events_smoke():
    result = bench_kernel_events(total_yields=20_000)
    assert result["yields"] == 20_000
    assert result["events_per_sec"] > 0


@pytest.mark.perf
def test_kernel_wakeups_smoke():
    result = bench_kernel_wakeups(total_yields=5_000)
    assert result["events_per_sec"] > 0


@pytest.mark.perf
def test_interpreter_smoke():
    result = bench_lanai_interpreter(repeats=1)
    assert result["instructions"] > 100_000
    assert result["instr_per_sec"] > 0


@pytest.mark.perf
def test_fabric_hops_smoke():
    result = bench_fabric_hops(nodes=32, packets_per_node=10)
    assert result["packets"] == 320
    assert result["hops"] == 6 * 320     # cross-pod: six wire hops each
    assert result["hops_per_sec"] > 0


@pytest.mark.perf
def test_campaign_smoke():
    result = bench_campaign(runs=4, workers=2, seed=2003)
    assert result["runs"] == 4
    assert sum(result["counts"].values()) == 4


@pytest.mark.perf
def test_merge_into_accumulates(tmp_path):
    out = tmp_path / "bench.json"
    assert merge_into(str(out), "a", {"x": 1, "cpus": 4}) == "a"
    assert merge_into(str(out), "b", {"y": 2, "cpus": 4}) == "b"
    on_disk = json.loads(out.read_text())
    assert set(on_disk["entries"]) == {"a", "b"}
    assert on_disk["entries"]["a"]["x"] == 1


@pytest.mark.perf
def test_merge_into_records_manifest(tmp_path):
    out = tmp_path / "bench.json"
    manifest = {"spec_hash": "abc", "seed": 2003, "git_rev": "deadbeef",
                "wall_time_s": 1.0, "recorded_at": "2026-01-01T00:00:00"}
    assert merge_into(str(out), "a", {"x": 1, "cpus": 4},
                      manifest=manifest) == "a"
    doc = json.loads(out.read_text())
    assert doc["entries"]["a"]["manifest"] == manifest


@pytest.mark.perf
def test_harness_main_stamps_manifest(tmp_path):
    from perf_harness import main

    out = tmp_path / "bench.json"
    assert main(["--quick", "--campaign-runs", "2",
                 "--out", str(out), "--label", "smoke"]) == 0
    entry = json.loads(out.read_text())["entries"]["smoke"]
    manifest = entry["manifest"]
    assert set(manifest) == {"spec_hash", "seed", "git_rev",
                             "wall_time_s", "recorded_at"}
    assert manifest["seed"] == 2003
