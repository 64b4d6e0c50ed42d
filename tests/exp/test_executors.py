"""The two executors: serial and the pool, one run path between them.

Every registered campaign must render the same document under either
executor, and an experiment registered with a boot/resume split must run
as ``resume(boot(config), config)`` — never through ``run_one`` — with
each run's cluster reclaimed before the next run boots.
"""

import hashlib
import json
import os
import weakref

import pytest

from repro.exp.registry import Experiment, _REGISTRY, get_experiment, register
from repro.exp.runner import run_experiment
from repro.exp.spec import ExperimentSpec, freeze_params

# Small campaigns of the four registered fault studies; closfault is its
# default 16-node fat-tree grid.
CAMPAIGNS = {
    "table1": {"runs": 4, "scale": "small"},
    "netfaults": {"runs_per_scenario": 1},
    "closfault": {},
    "slo-chaos": {"scale": "small"},
}


def _doc(result):
    doc = result.to_doc()
    doc.pop("manifest")         # wall time and timestamp differ per run
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_executor_matches_serial(executor, name):
    params = CAMPAIGNS[name]
    serial = run_experiment(get_experiment(name).build_spec(dict(params)))
    assert _doc(executor(name, params)) == _doc(serial)


class TestGoldenDocs:
    """Pinned rendered-document hashes.

    A change here means the *simulation* changed, not the executor —
    update the constants only alongside a deliberate, explained
    behavior change.
    """

    NETFAULTS_DOC = ("7b9302fd65f30ab9cca41231a5234c94c0d4"
                     "1597385e036fa3ea8353ac210467")
    CLOSFAULT_DOC = ("62bb32659387d0df8dd691c32123b61ae70f"
                     "bc720cf9a01df709e34b1556466a")

    @staticmethod
    def _doc_hash(result):
        return hashlib.sha256(result.rendered.encode()).hexdigest()

    def test_netfaults_doc_pinned(self, executor):
        result = executor("netfaults", {"runs_per_scenario": 1,
                                        "seed": 2003})
        assert self._doc_hash(result) == self.NETFAULTS_DOC

    def test_closfault_doc_pinned(self, executor):
        result = executor("closfault", {"scale": "small",
                                        "runs_per_cell": 1, "seed": 2003})
        assert self._doc_hash(result) == self.CLOSFAULT_DOC


# -- the boot/resume run path ---------------------------------------------------
#
# A toy experiment whose every call leaves a line in a log file, so the
# calls made inside pool workers are counted too.

TOY = "toy-boot-resume"
TOY_RUNS = 5
_last_booted = [None]           # weakref to this process's last boot


class _ToyCluster:
    def __init__(self, run_id):
        self.run_id = run_id
        self.me = self          # a reference cycle, like a real cluster


def _log(config, *fields):
    run_id, path = config
    with open(path, "a") as fh:
        fh.write(" ".join(str(f) for f in (run_id, os.getpid()) + fields)
                 + "\n")


def _toy_boot(config):
    previous = _last_booted[0]
    alive = previous is not None and previous() is not None
    _log(config, "boot", "previous-alive" if alive else "previous-dead")
    cluster = _ToyCluster(config[0])
    _last_booted[0] = weakref.ref(cluster)
    return cluster


def _toy_resume(cluster, config):
    _log(config, "resume")
    return cluster.run_id * 10


def _toy_run_one(config):
    raise AssertionError("a boot/resume experiment ran through run_one")


def _toy_spec(params):
    return ExperimentSpec(experiment=TOY, runs=TOY_RUNS,
                          params=freeze_params(params))


def _toy_expand(spec):
    return [(run_id, spec.param("log")) for run_id in range(spec.runs)]


@pytest.fixture
def toy_log(tmp_path):
    get_experiment("table1")        # load the registry before adding to it
    register(Experiment(
        name=TOY, help="counts its boot and resume calls",
        build_spec=_toy_spec, expand=_toy_expand, run_one=_toy_run_one,
        aggregate=lambda spec, outcomes: outcomes, render=str,
        boot=_toy_boot, resume=_toy_resume))
    try:
        yield tmp_path / "calls.log"
    finally:
        _REGISTRY.pop(TOY)


def _calls(path):
    return [line.split() for line in path.read_text().splitlines()]


class TestBootResumePath:
    def test_each_run_boots_and_resumes_once(self, executor, toy_log):
        result = executor(TOY, {"log": str(toy_log)})
        assert result.outcomes == [run_id * 10
                                   for run_id in range(TOY_RUNS)]
        calls = _calls(toy_log)
        for kind in ("boot", "resume"):
            runs = sorted(int(c[0]) for c in calls if c[2] == kind)
            assert runs == list(range(TOY_RUNS)), kind

    def test_previous_cluster_is_reclaimed_before_the_next_boot(
            self, executor, toy_log):
        executor(TOY, {"log": str(toy_log)})
        boots = [c for c in _calls(toy_log) if c[2] == "boot"]
        assert len(boots) == TOY_RUNS
        assert all(c[3] == "previous-dead" for c in boots), boots

    def test_telemetry_runs_the_same_path(self, executor, toy_log):
        result = executor(TOY, {"log": str(toy_log)}, telemetry=True)
        assert result.outcomes == [run_id * 10
                                   for run_id in range(TOY_RUNS)]
        assert sum(1 for c in _calls(toy_log) if c[2] == "boot") \
            == TOY_RUNS
