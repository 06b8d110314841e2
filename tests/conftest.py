"""Shared fixtures: the identified-FRF design and the 20-breath experiment logs
are built once per session and reused by the module tests and the acceptance
suite (which also asserts their wall-clock budgets)."""

import time
import warnings

import pytest

from ventrc.control_rt import benchmark_controller_tf
from ventrc.errors import FitConvergenceWarning
from ventrc.harness import (
    IDENT_NOISE_RMS, IDENT_PERIODS, ExperimentSpec, design_excitation_bins, run_experiment,
)
from ventrc.lti import FirKernel
from ventrc.plant import VentilatorPlant, load_scenario, reference_profile
from ventrc.rc_design import check_stability, design_pipeline
from ventrc.sysid import MultisineSpec, average_frf, estimate_frf

SCENARIOS = ("adult", "pediatric", "baby")
DESIGN_SEED = 0


@pytest.fixture(scope="session")
def scenario_table():
    return {name: load_scenario(name) for name in SCENARIOS}


@pytest.fixture(scope="session")
def design_outputs(scenario_table):
    """Design-grade identification of all six responses plus the synthesis chain."""
    t0 = time.perf_counter()
    ts = next(iter(scenario_table.values()))[1].sample_time
    controller = benchmark_controller_tf(sample_time=ts)
    spec = MultisineSpec(
        bins_hz=design_excitation_bins(ts),
        period_samples=round(4.0 / ts),
        periods_recorded=IDENT_PERIODS,
        periods_discarded=5,
        seed=DESIGN_SEED,
    )
    frfs = {}
    job = 0
    for name, (scenario, circuit) in scenario_table.items():
        for level in ("peep", "ipap"):
            operating = scenario.peep if level == "peep" else scenario.ipap
            plant = VentilatorPlant(scenario, circuit,
                                    measurement_noise_rms=IDENT_NOISE_RMS,
                                    seed=DESIGN_SEED + 1000 + job)
            frfs[f"{name}_{level}"] = estimate_frf(plant, controller, operating, spec)
            job += 1
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
