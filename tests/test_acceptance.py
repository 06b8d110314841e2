"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s they appear in captured output on failure.
"""

import time
import warnings

import numpy as np
import pytest

from ventrc.control_rt import RepetitiveController, benchmark_controller_tf
from ventrc.harness import ExperimentSpec, compare_runs, run_experiment
from ventrc.lti import evaluate
from ventrc.plant import VentilatorPlant, load_scenario
from ventrc.sysid import MultisineSpec, estimate_frf

from filter_reference import filter_stream, rc_transfer_function

SCENARIOS = ("adult", "pediatric", "baby")


def _criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number}: {verdict} - {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_stability_reproduction(design_outputs):
    """Q=1 must fail for every patient; the 23 Hz / order-50 design must pass
    with margin >= 0.02, all inside 10 s of design work."""
    no_q = design_outputs["report_no_q"]
    with_q = design_outputs["report"]
    elapsed = design_outputs["elapsed_s"]

    per_patient_fail = {}
    for name in SCENARIOS:
        worst = max(v for k, v in no_q.per_plant_max.items() if k.startswith(name))
        per_patient_fail[name] = worst >= 1.0
    all_fail = all(per_patient_fail.values())
    passes = with_q.passed and with_q.margin >= 0.02
    fast = elapsed < 10.0
    _criterion(
        1, "stability reproduction (no-Q fails, 23 Hz design passes)",
        all_fail and passes and fast,
        f"no-Q max {no_q.overall_max:.2f}, with-Q max {with_q.overall_max:.3f}, "
        f"margin {with_q.margin:.3f}, design time {elapsed:.1f}s",
    )


def test_criterion_2_convergence_speed(experiment_logs):
    """Per-breath norm changes by < 5% between breath 6 and breath 20."""
    ok = True
    details = []
    for name in SCENARIOS:
        norms = experiment_logs["logs"][(name, "rc")].breath_norms
        change = abs(norms[19] - norms[5]) / norms[5]
        runtime = experiment_logs["timings"][name]
        details.append(f"{name}: change {change * 100:.2f}%, {runtime:.1f}s")
        ok = ok and change < 0.05 and runtime < 30.0
    _criterion(2, "convergence within ~5 breaths", ok, "; ".join(details))


def test_criterion_3_tracking_improvement(experiment_logs):
    """Converged norm <= 0.2x the benchmark steady norm; report the 0.1
    stretch mark for the pediatric case."""
    ok = True
    details = []
    for name in SCENARIOS:
        table = compare_runs(experiment_logs["logs"][(name, "pid")],
                             experiment_logs["logs"][(name, "rc")])
        ratio = table.converged_ratio
        details.append(f"{name}: {ratio:.3f}")
        ok = ok and ratio <= 0.2
        if name == "pediatric":
            stretch = "met" if ratio <= 0.1 else "not met"
            details.append(f"pediatric 0.1 stretch {stretch}")
    _criterion(3, "converged norm <= 0.2x benchmark", ok, "; ".join(details))


def test_criterion_4_identification_oracle():
    """Estimated FRFs match the analytic closed loop to 0.5% / 0.5 degrees
    at every excited bin, both operating levels, all scenarios."""
    worst_mag = worst_phase = 0.0
    for name in SCENARIOS:
        scenario, circuit = load_scenario(name)
        controller = benchmark_controller_tf(sample_time=circuit.sample_time)
        plant = VentilatorPlant(scenario, circuit)
        analytic = plant.closed_form_tf().cascade(controller).feedback_complementary()
        for level, operating in (("peep", scenario.peep), ("ipap", scenario.ipap)):
            frf = estimate_frf(plant, controller, operating, MultisineSpec(seed=11))
            ref = evaluate(analytic, frf.frequencies_hz)
            mag = np.max(np.abs(np.abs(frf.values) - np.abs(ref.values))
                         / np.abs(ref.values))
            phase = np.max(np.degrees(np.abs(np.angle(frf.values / ref.values))))
            worst_mag = max(worst_mag, mag)
            worst_phase = max(worst_phase, phase)
    _criterion(
        4, "identification matches the analytic loop",
        worst_mag < 0.005 and worst_phase < 0.5,
        f"worst magnitude error {worst_mag * 100:.4f}%, worst phase {worst_phase:.4f} deg",
    )


def test_criterion_5_zpetc_property_suite(design_outputs):
    """Zero-phase compensation on the designed fit plus exact round-trip
    recovery of a known model."""
    from ventrc.lti import DiscreteTransferFunction
    from ventrc.rc_design import default_stability_grid
    from ventrc.sysid import fit_rational

    t_fit = design_outputs["t_fit"]
    fs = design_outputs["filterset"]
    grid = default_stability_grid(t_fit.sample_time)
    tl = evaluate(t_fit, grid).values * evaluate(fs.l_causal, grid, fs.l_shift).values
    zero_phase = np.max(np.abs(tl.imag) / np.abs(tl)) <= 1e-9
    dc_unity = abs(t_fit.dc_gain() * fs.l_causal.dc_gain() - 1.0) <= 1e-9

    den = np.real(np.poly([0.9, 0.75, 0.6 + 0.2j, 0.6 - 0.2j]))
    num = np.array([0.04, 0.1, -0.03, 0.015, 0.005])
    known = DiscreteTransferFunction(num, den, 12, t_fit.sample_time)
    frf = evaluate(known, np.logspace(np.log10(0.5), np.log10(100.0), 40))
    fit = fit_rational(frf, 4, 12)
    rel = max(
        np.max(np.abs(fit.numerator_coeffs - known.numerator_coeffs))
        / np.max(np.abs(known.numerator_coeffs)),
        np.max(np.abs(fit.denominator_coeffs - known.denominator_coeffs))
        / np.max(np.abs(known.denominator_coeffs)),
    )
    _criterion(
        5, "zero-phase inversion and fit round-trip",
        zero_phase and dc_unity and rel < 1e-6,
        f"max imag ratio {np.max(np.abs(tl.imag) / np.abs(tl)):.1e}, "
        f"round-trip error {rel:.1e}",
    )


def test_criterion_6_runtime_equivalence(design_outputs):
    """Streaming memory loop equals offline rational filtering to 1e-8 RMS
    over 10 periods of white noise."""
    fs = design_outputs["filterset"]
    rng = np.random.default_rng(2024)
    e = rng.normal(size=10 * fs.period_n)
    rc = RepetitiveController(fs)
    streamed = np.array([rc.step(v) for v in e])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        offline = filter_stream(rc_transfer_function(fs), e)
    rms = float(np.sqrt(np.mean((streamed - offline) ** 2)))
    _criterion(6, "streaming loop equals rational evaluation", rms <= 1e-8,
               f"rms {rms:.2e} over {len(e)} samples")


def test_criterion_7_plant_oracle():
    """Streaming simulator vs closed-form filtering to 1e-10 over 10 s of
    white noise, with flow balance at 1e-12 every step."""
    rng = np.random.default_rng(77)
    worst_match = 0.0
    worst_balance = 0.0
    for name in SCENARIOS:
        scenario, circuit = load_scenario(name)
        plant = VentilatorPlant(scenario, circuit)
        n = round(10.0 / circuit.sample_time)
        u = rng.normal(0.0, 1.0, n)
        streamed = np.empty(n)
        for k, v in enumerate(u):
            streamed[k] = plant.step(v)[0]
            _, q_out, q_leak, q_pat = plant.last_flows
            worst_balance = max(worst_balance, abs(q_out - q_leak - q_pat))
        analytic = filter_stream(plant.closed_form_tf(), u)
        worst_match = max(worst_match, float(np.max(np.abs(streamed - analytic))))
    _criterion(
        7, "simulator matches closed form with conserved flows",
        worst_match <= 1e-10 and worst_balance <= 1e-12,
        f"worst mismatch {worst_match:.1e} mbar, worst balance {worst_balance:.1e} L/s",
    )


def test_criterion_8_baseline_neutrality(design_outputs):
    """Disabled add-on reproduces the benchmark trace bit for bit.

    Both halves run the loop with a learning filter that hands out zero
    corrections.  Streaming: the controller against the benchmark's
    sample-by-sample loop.  Chunked: run_experiment in rc mode against pid
    mode.
    """
    from closed_loop_reference import reference_run
    from ventrc.control_rt import VentilatorController
    from ventrc.lti import DiscreteTransferFunction, FirKernel
    from ventrc.plant import reference_profile
    from ventrc.rc_design import RcFilterSet

    fs = design_outputs["filterset"]
    # max |Q| < 1, so the stability guard passes the silent add-on
    silent = RcFilterSet(DiscreteTransferFunction([0.0], [1.0], 0, fs.sample_time),
                         fs.l_shift, FirKernel(fs.q_kernel.taps * 0.995), fs.period_n)
    pid_spec = ExperimentSpec(scenario="adult", mode="pid", breaths=5)
    reference_log = reference_run(pid_spec)

    scenario, circuit = load_scenario("adult")
    plant = VentilatorPlant(scenario, circuit)
    controller = VentilatorController(silent)
    profile = reference_profile(scenario, circuit.sample_time)
    n = len(profile)
    command = np.empty(5 * n)
    p_aw = np.empty(5 * n)
    for k in range(5 * n):
        y = plant.peek_measurement()
        u = controller.step(profile[k % n], y)
        plant.step(u)
        command[k] = u
        p_aw[k] = y
    streaming = (np.array_equal(command, reference_log.command)
                 and np.array_equal(p_aw, reference_log.p_aw))

    pid_log = run_experiment(pid_spec)
    rc_log = run_experiment(ExperimentSpec(scenario="adult", mode="rc", breaths=5,
                                           filterset=silent))
    chunked = (np.array_equal(rc_log.command, pid_log.command)
               and np.array_equal(rc_log.p_aw, pid_log.p_aw))
    _criterion(8, "disabled add-on is bit-identical to the benchmark", streaming and chunked,
               f"streaming {'identical' if streaming else 'differs'}, "
               f"chunked {'identical' if chunked else 'differs'}")
