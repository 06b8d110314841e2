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
from ventrc.lti import DiscreteTransferFunction, FirKernel
from ventrc.plant import load_scenario, reference_profile
from ventrc.rc_design import (
    Q_CUTOFF_HZ, Q_ORDER, RcFilterSet, check_stability, design_pipeline, design_q_fir,
)
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
    """check_stability's response memo emptied, and a list that gets "q" for
    each uncached evaluation of an FIR filter (Q) and "l" for each of any
    other filter (L), counted at the one path, rc_design's lti.evaluate."""
    built = []

    def counting(tf, frequencies_hz, advance=0):
        built.append("q" if tf.denominator_coeffs.size == 1 else "l")
        return lti.evaluate(tf, frequencies_hz, advance)

    monkeypatch.setattr(rc_design, "_RESPONSES", {})
    monkeypatch.setattr(rc_design, "evaluate", counting)
    return built


@pytest.fixture
def unstable_filterset():
    """The default Q with L = -0.05 / (1 - 1.05 z^-1): unit DC gain, a pole at
    z = 1.05, shift 13, the baby's period."""
    l_causal = DiscreteTransferFunction([-0.05], [1.0, -1.05], 0, 0.002)
    return RcFilterSet(l_causal, 13, design_q_fir(Q_CUTOFF_HZ, Q_ORDER, 0.002), 1000)


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
