"""Continuous sampling contracts.

The load-bearing guarantees: sampling off installs nothing (results
byte-identical to unsampled runs), sampling on is deterministic across
every executor, sample instants ride simulated time exactly, and
reading a lazily-parked MCP never wakes it.
"""

import json

import pytest

from repro.cluster import build_cluster
from repro.exp.registry import get_experiment
from repro.exp.results import validate_result
from repro.exp.runner import run_experiment
from repro.obs import runtime as obs_runtime
from repro.obs.timeseries import TimeSeriesSampler


@pytest.fixture(autouse=True)
def _clean_runtime():
    obs_runtime.reset()
    yield
    obs_runtime.reset()


NF_PARAMS = {"runs_per_scenario": 1, "scenarios": ["link-cut"],
             "nodes": 4}


def _run(name, params, **kw):
    experiment = get_experiment(name)
    spec = experiment.build_spec(dict(params))
    return run_experiment(spec, **kw)


def _doc_without_manifest(result):
    doc = result.to_doc()
    doc.pop("manifest")
    return doc


class TestSamplerUnit:
    def test_cadence_must_be_positive(self):
        cluster = build_cluster(n_nodes=2, flavor="gm")
        with pytest.raises(ValueError):
            TimeSeriesSampler(cluster, 0.0)

    def test_samples_land_on_exact_cadence_instants(self):
        obs_runtime.configure(sample_every=500.0)
        cluster = build_cluster(n_nodes=2, flavor="ftgm")
        cluster.sim.run(until=2600)
        doc = cluster.sampler.to_doc()
        assert doc["t"] == [500.0, 1000.0, 1500.0, 2000.0, 2500.0]
        assert doc["every_us"] == 500.0

    def test_every_track_spans_every_sample(self):
        obs_runtime.configure(sample_every=400.0)
        cluster = build_cluster(n_nodes=3, flavor="ftgm")
        cluster.sim.run(until=2000)
        doc = cluster.sampler.to_doc()
        assert doc["tracks"], "no tracks registered"
        for name, track in doc["tracks"].items():
            assert len(track) == len(doc["t"]), name

    def test_default_tracks_cover_mcp_and_fabric(self):
        obs_runtime.configure(sample_every=1000.0)
        cluster = build_cluster(n_nodes=2, flavor="ftgm")
        cluster.sim.run(until=3000)
        tracks = set(cluster.sampler.to_doc()["tracks"])
        for expected in ("mcp.node0.l_timer_invocations",
                         "mcp.node0.ticks_parked",
                         "mcp.node0.watchdog_arms",
                         "mcp.node1.l_timer_invocations",
                         "link.packets_carried",
                         "link.packets_corrupted",
                         "switch.forwarded"):
            assert expected in tracks, expected

    def test_gm_flavor_has_no_watchdog_track(self):
        obs_runtime.configure(sample_every=1000.0)
        cluster = build_cluster(n_nodes=2, flavor="gm")
        assert not any("watchdog" in name
                       for name in cluster.sampler.tracks)

    def test_counter_tracks_are_monotone(self):
        obs_runtime.configure(sample_every=500.0)
        cluster = build_cluster(n_nodes=2, flavor="ftgm")
        cluster.sim.run(until=4000)
        for name, track in cluster.sampler.to_doc()["tracks"].items():
            assert all(a <= b for a, b in zip(track, track[1:])), name

    def test_duplicate_registration_rejected(self):
        obs_runtime.configure(sample_every=500.0)
        cluster = build_cluster(n_nodes=2, flavor="gm")
        with pytest.raises(ValueError):
            cluster.sampler.register("link.packets_carried", lambda now: 0)

    def test_midrun_registration_backfills_zeros(self):
        obs_runtime.configure(sample_every=500.0)
        cluster = build_cluster(n_nodes=2, flavor="gm")
        cluster.sim.run(until=1600)            # 3 samples taken
        cluster.sampler.register("late.track", lambda now: 9)
        cluster.sim.run(until=2100)            # 1 more
        track = cluster.sampler.to_doc()["tracks"]["late.track"]
        assert track == [0, 0, 0, 9]

    def test_counter_records_are_chrome_counter_events(self):
        obs_runtime.configure(sample_every=1000.0)
        cluster = build_cluster(n_nodes=2, flavor="gm")
        cluster.sim.run(until=2500)
        records = cluster.sampler.counter_records()
        assert records
        assert all(r.source == "timeseries" and r.details["_ph"] == "C"
                   and "value" in r.details for r in records)
        assert {r.kind for r in records} == set(cluster.sampler.tracks)

    def test_nothing_installed_when_intent_unset(self):
        cluster = build_cluster(n_nodes=2, flavor="ftgm")
        assert cluster.sampler is None
        assert cluster.flight is None


class TestParkedSampling:
    """Reading a parked MCP projects, never wakes."""

    def _parked_cluster(self):
        cluster = build_cluster(n_nodes=2, flavor="gm", lazy=True)
        cluster.sim.run(until=50_000)
        return cluster

    def test_sample_stats_does_not_unpark(self):
        cluster = self._parked_cluster()
        mcp = cluster.nodes[0].driver.mcp
        assert mcp._parked, "idle lazy node should have parked"
        before = mcp.l_timer_invocations
        mcp.sample_stats(cluster.sim.now)
        assert mcp._parked
        assert mcp.l_timer_invocations == before

    def test_projection_matches_settled_counters(self):
        # The read-only projection must agree exactly with what the
        # counters read after the real replay settles the parked span
        # at the same instant.
        cluster = self._parked_cluster()
        mcp = cluster.nodes[0].driver.mcp
        assert mcp._parked
        projected = mcp.sample_stats(cluster.sim.now)
        mcp.settle_idle()
        assert mcp.l_timer_invocations \
            == projected["l_timer_invocations"]
        assert mcp.ticks_parked == projected["ticks_parked"]

    def test_ftgm_projection_matches_watchdog_arms(self):
        cluster = build_cluster(n_nodes=2, flavor="ftgm", lazy=True)
        cluster.sim.run(until=80_000)
        mcp = cluster.nodes[1].driver.mcp
        if not mcp._parked:
            pytest.skip("node never parked in this window")
        projected = mcp.sample_stats(cluster.sim.now)
        mcp.settle_idle()
        assert mcp.l_timer_invocations \
            == projected["l_timer_invocations"]
        # A mid-window wake arms its watchdog only at the tail
        # callback, so both the projection and the replay count whole
        # windows only — they must agree exactly.
        assert mcp.watchdog_arms == projected["watchdog_arms"]

    def test_unparked_mcp_projection_is_plain_counters(self):
        cluster = build_cluster(n_nodes=2, flavor="ftgm")
        cluster.sim.run(until=10_000)
        mcp = cluster.nodes[0].driver.mcp
        stats = mcp.sample_stats(cluster.sim.now)
        assert stats["l_timer_invocations"] == mcp.l_timer_invocations
        assert stats["watchdog_arms"] == mcp.watchdog_arms


class TestEngineIntegration:
    def test_sampling_off_leaves_results_byte_identical(self):
        off = _doc_without_manifest(_run("netfaults", NF_PARAMS))
        on = _doc_without_manifest(
            _run("netfaults", NF_PARAMS, sample_every=2000.0))
        assert "timeseries" not in off
        series = on.pop("timeseries")
        assert json.dumps(off, sort_keys=True) \
            == json.dumps(on, sort_keys=True)
        assert series["sample_every_us"] == 2000.0
        assert [index for index, _ in series["runs"]] == [0]

    def test_timeseries_identical_across_executors(self, executor):
        serial = _run("netfaults", NF_PARAMS, sample_every=2000.0)
        other = executor("netfaults", NF_PARAMS, sample_every=2000.0)
        assert json.dumps(other.to_doc()["timeseries"], sort_keys=True) \
            == json.dumps(serial.to_doc()["timeseries"], sort_keys=True)

    def test_result_doc_with_timeseries_validates(self):
        result = _run("netfaults", NF_PARAMS, sample_every=2000.0)
        validate_result(json.loads(result.to_json()))

    def test_malformed_timeseries_rejected(self):
        result = _run("netfaults", NF_PARAMS, sample_every=2000.0)
        doc = json.loads(result.to_json())
        doc["timeseries"]["runs"][0][1]["tracks"]["bad"] = [1]
        with pytest.raises(ValueError, match="spanning"):
            validate_result(doc)

    def test_trace_gains_counter_events_when_sampling(self):
        result = _run("netfaults", NF_PARAMS, sample_every=2000.0,
                      trace=True)
        assert result.traces
        for _, records in result.traces:
            counters = [r for r in records if r.source == "timeseries"]
            assert counters, "no counter events in trace"
            assert all(r.details["_ph"] == "C" for r in counters)

    def test_runtime_reset_after_sampled_campaign(self):
        _run("netfaults", NF_PARAMS, sample_every=2000.0)
        assert obs_runtime.sample_every() is None
        assert not obs_runtime.flight_on()
