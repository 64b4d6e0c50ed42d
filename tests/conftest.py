"""Test-suite-wide configuration."""

import multiprocessing

import pytest
from hypothesis import HealthCheck, settings

# Simulation-heavy property tests can blow hypothesis' default 200 ms
# per-example deadline on a loaded machine; correctness, not wall time,
# is what these tests check.  derandomize keeps CI runs reproducible.
settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(params=[1, 2], ids=["serial", "pool"])
def executor(request):
    """Run registered experiments on each executor: serial, then a pool.

    Yields ``run(name, params, **kwargs)``, which builds the experiment's
    spec from ``params`` and returns its ``ExperimentResult`` computed
    with ``workers`` 1 or 2.  On exit the executor must have left no
    worker process and no telemetry scope behind.
    """
    from repro.exp.registry import get_experiment
    from repro.exp.runner import run_experiment
    from repro.obs import runtime as obs_runtime

    def run(name, params, **kwargs):
        spec = get_experiment(name).build_spec(dict(params))
        return run_experiment(spec, workers=request.param, **kwargs)

    yield run
    assert not multiprocessing.active_children()
    assert not (obs_runtime.metrics_on() or obs_runtime.tracing()
                or obs_runtime.flight_on()
                or obs_runtime.sample_every() is not None)
