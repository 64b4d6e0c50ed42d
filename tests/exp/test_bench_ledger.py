"""BENCH_perf.json ledger policy: append-only, baseline frozen, axes required."""

import importlib.util
import json
import pathlib

import pytest


def _harness():
    root = pathlib.Path(__file__).resolve().parents[2]
    path = root / "benchmarks" / "perf" / "perf_harness.py"
    spec = importlib.util.spec_from_file_location("perf_harness", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def harness():
    return _harness()


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _entry(**overrides):
    """A minimal valid ledger entry (cpus + fully-axed campaign result)."""
    entry = {
        "cpus": 1,
        "campaign": {"runs": 8, "runs_per_sec": 4.0, "wall_s": 2.0,
                     "workers": 1},
    }
    entry.update(overrides)
    return entry


class TestLedger:
    def test_first_write_creates_entry(self, harness, tmp_path):
        out = tmp_path / "bench.json"
        label = harness.merge_into(str(out), "pr9", _entry(x=1))
        assert label == "pr9"
        assert _read(out)["entries"]["pr9"]["x"] == 1

    def test_baseline_is_frozen(self, harness, tmp_path):
        out = tmp_path / "bench.json"
        harness.merge_into(str(out), "baseline", _entry(x=1))
        with pytest.raises(SystemExit):
            harness.merge_into(str(out), "baseline", _entry(x=2))
        assert _read(out)["entries"]["baseline"]["x"] == 1

    def test_duplicate_labels_accumulate(self, harness, tmp_path):
        out = tmp_path / "bench.json"
        harness.merge_into(str(out), "pr9", _entry(x=1))
        relabel = harness.merge_into(str(out), "pr9", _entry(x=2))
        assert relabel != "pr9" and relabel.startswith("pr9-")
        entries = _read(out)["entries"]
        assert entries["pr9"]["x"] == 1
        assert entries[relabel]["x"] == 2


class TestEntryValidation:
    """New entries must record the hardware and parallelism axes."""

    def test_cpus_required(self, harness, tmp_path):
        out = tmp_path / "bench.json"
        entry = _entry()
        del entry["cpus"]
        with pytest.raises(SystemExit, match="cpus"):
            harness.merge_into(str(out), "pr9", entry)
        assert not out.exists()

    def test_cpus_must_be_int(self, harness, tmp_path):
        with pytest.raises(SystemExit, match="cpus"):
            harness.merge_into(str(tmp_path / "bench.json"), "pr9",
                               _entry(cpus="one"))

    def test_campaign_results_need_workers_axis(self, harness, tmp_path):
        entry = _entry()
        del entry["campaign"]["workers"]
        with pytest.raises(SystemExit, match="workers"):
            harness.merge_into(str(tmp_path / "bench.json"), "pr9", entry)

    def test_non_rate_subresults_are_exempt(self, harness, tmp_path):
        out = tmp_path / "bench.json"
        entry = _entry(kernel_timeouts={"events_per_sec": 5e5,
                                        "wall_s": 0.4})
        label = harness.merge_into(str(out), "pr9", entry)
        assert label == "pr9"

    def test_run_all_output_passes_validation(self, harness):
        # The real harness output shape (campaign via bench_campaign +
        # environment_info) must satisfy its own ledger policy.
        from repro.exp.perfbench import environment_info

        results = {
            "campaign": {"runs": 8, "workers": 1, "wall_s": 1.0,
                         "runs_per_sec": 8.0, "counts": {}},
        }
        results.update(environment_info())
        harness._validate_entry("pr9", results)

    def test_existing_ledger_labels_untouched(self, harness, tmp_path):
        # Validation applies to the entry being merged, not to history:
        # a ledger holding pre-axis entries still accepts new ones.
        out = tmp_path / "bench.json"
        doc = {"schema": 1,
               "entries": {"pr1": {"campaign": {"runs_per_sec": 3.2}}}}
        out.write_text(json.dumps(doc))
        label = harness.merge_into(str(out), "pr9", _entry())
        entries = _read(out)["entries"]
        assert label == "pr9" and "pr1" in entries and "pr9" in entries
