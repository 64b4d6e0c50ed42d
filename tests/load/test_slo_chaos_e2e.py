"""End-to-end slo-chaos determinism: same seed, same bytes, any executor.

The whole load plane promises that a campaign's result document depends
only on its spec — not on the executor (serial or worker pool; see
``tests/exp/test_executors.py``) and not on whether telemetry was
recording.  These tests pin that promise at the document level:
``to_doc()`` minus the environment manifest (and the telemetry block,
which is additive observability, not outcome data) must be
byte-identical.
"""

import json

import pytest

from repro.exp.registry import get_experiment
from repro.exp.results import validate_result
from repro.exp.runner import run_experiment

SEEDS = [2003, 99]


def _spec(seed):
    return get_experiment("slo-chaos").build_spec(
        {"scale": "small", "seed": seed})


def _doc_bytes(result):
    doc = result.to_doc()
    validate_result(doc)
    doc.pop("manifest")
    doc.pop("telemetry", None)
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("seed", SEEDS)
class TestByteIdentity:
    def test_pool_matches_serial(self, seed):
        serial = run_experiment(_spec(seed))
        pooled = run_experiment(_spec(seed), workers=2)
        assert _doc_bytes(pooled) == _doc_bytes(serial)

    def test_telemetry_does_not_change_outcomes(self, seed):
        plain = run_experiment(_spec(seed))
        metered = run_experiment(_spec(seed), telemetry=True)
        assert metered.telemetry is not None
        assert _doc_bytes(metered) == _doc_bytes(plain)


class TestSpecHashes:
    def test_spec_hashes_pinned(self):
        # Moving either hash silently invalidates journals and saved
        # result comparisons; changes must be deliberate.
        experiment = get_experiment("slo-chaos")
        assert experiment.build_spec({}).spec_hash == "6011eefefcd050de"
        assert experiment.build_spec({"scale": "small"}).spec_hash \
            == "6dac9f864914d083"


class TestVerdictDocument:
    def test_small_campaign_grades_the_expected_story(self):
        result = run_experiment(_spec(SEEDS[0]))
        verdicts = result.summary["verdicts"]
        # Fault-free baseline passes with FT on and off; under a cut
        # link only the fault-tolerant flavor holds the SLO.
        assert verdicts["baseline/ftgm"] == "pass"
        assert verdicts["baseline/gm"] == "pass"
        assert verdicts["link-cut/ftgm"] == "pass"
        assert verdicts["link-cut/gm"] == "fail"

    def test_outcomes_decode_and_round_trip(self):
        experiment = get_experiment("slo-chaos")
        result = run_experiment(_spec(SEEDS[0]))
        doc = result.to_doc()
        for encoded, outcome in zip(doc["outcomes"], result.outcomes):
            decoded = experiment.decode(encoded)
            assert decoded == outcome
            verdict = decoded.verdict
            assert verdict.verdict in ("pass", "fail")
            assert verdict.stages
            for stage in verdict.stages:
                assert stage.offered >= stage.accepted >= stage.completed
