"""Shared fixtures: the identified-FRF design and the 20-breath experiment logs
are built once per session and reused by the module tests and the acceptance
suite (which also asserts their wall-clock budgets)."""

import time
import warnings
from types import SimpleNamespace

import pytest

from ventrc import harness, lti, rc_design
from ventrc.errors import FitConvergenceWarning
from ventrc.harness import SCENARIOS, ExperimentSpec, identify_all, run_experiment
from ventrc.lti import FirKernel
from ventrc.plant import load_scenario, reference_profile
from ventrc.rc_design import check_stability, design_pipeline
from ventrc.sysid import average_frf


@pytest.fixture
def lift_builds(monkeypatch):
    """The lift memo emptied, and a list that gets (order, outputs, chunk) of each lift built."""
    built = []
    build = lti._build_lift

    def counting_build(a, b, c, d, chunk):
        built.append((len(b), len(d), chunk))
        return build(a, b, c, d, chunk)

    monkeypatch.setattr(lti, "_LIFTS", {})
    monkeypatch.setattr(lti, "_build_lift", counting_build)
    return built


@pytest.fixture
def response_builds(monkeypatch):
    """check_stability's response memo emptied, and a list that gets "q" or "l"
    for each uncached evaluation of Q or L."""
    built = []
    q_response, l_response = lti.FirKernel.frequency_response, rc_design.learning_filter_response

    def counting_q(self, frequencies_hz, sample_time):
        built.append("q")
        return q_response(self, frequencies_hz, sample_time)

    def counting_l(l_causal, l_shift, frequencies_hz):
        built.append("l")
        return l_response(l_causal, l_shift, frequencies_hz)

    monkeypatch.setattr(rc_design, "_RESPONSES", {})
    monkeypatch.setattr(lti.FirKernel, "frequency_response", counting_q)
    monkeypatch.setattr(rc_design, "learning_filter_response", counting_l)
    return built


@pytest.fixture
def unguarded(monkeypatch):
    """run_experiment without its stability guard, for runs of loops that the guard refuses."""
    monkeypatch.setattr(harness, "check_stability", lambda *args: SimpleNamespace(passed=True))


@pytest.fixture(scope="session")
def scenario_table():
    return {name: load_scenario(name) for name in SCENARIOS}


@pytest.fixture(scope="session")
def design_outputs():
    """Design-grade identification of all six responses plus the synthesis chain."""
    t0 = time.perf_counter()
    frfs = identify_all()
    mean = average_frf(frfs.values())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FitConvergenceWarning)
        filterset, report = design_pipeline(frfs, mean, period_n=2000)
    report_no_q = check_stability(FirKernel([1.0]),
                                  filterset.l_causal, filterset.l_shift, frfs)
    elapsed = time.perf_counter() - t0
    return {
        "frfs": frfs,
        "mean": mean,
        "filterset": filterset,
        "t_fit": filterset.t_fit,
        "report": report,
        "report_no_q": report_no_q,
        "elapsed_s": elapsed,
    }


@pytest.fixture(scope="session")
def experiment_logs(design_outputs, scenario_table):
    """20-breath benchmark and add-on runs per scenario, timed per scenario."""
    filterset = design_outputs["filterset"]
    logs = {}
    timings = {}
    for name, (scenario, circuit) in scenario_table.items():
        period = len(reference_profile(scenario, circuit.sample_time))
        bound = filterset.with_period(period)
        t0 = time.perf_counter()
        logs[(name, "pid")] = run_experiment(
            ExperimentSpec(scenario=name, mode="pid", breaths=20))
        logs[(name, "rc")] = run_experiment(
            ExperimentSpec(scenario=name, mode="rc", breaths=20, filterset=bound))
        timings[name] = time.perf_counter() - t0
    return {"logs": logs, "timings": timings}
