"""Sample-by-sample closed loops: the references that the chunked engine in
`ventrc.closed_loop` is checked against.

Each sample reads the measurement with `peek_measurement`, steps the
streaming controller and steps the plant, exactly as the loop diagram is
drawn.  The divergence bounds, error messages and partial logs match
`run_experiment` and `estimate_frf`.
"""

from __future__ import annotations

import math

import numpy as np

from ventrc.control_rt import ControllerConfig, VentilatorController
from ventrc.errors import ExperimentDiverged, IdentificationError
from ventrc.harness import BreathLog
from ventrc.lti import FrequencyResponse, StreamingFilter
from ventrc.plant import VentilatorPlant, load_scenario, reference_profile


def reference_run(spec, filterset=None) -> BreathLog:
    """run_experiment's loop for an ExperimentSpec, without the stability guard.

    rc mode takes the filter set object itself.
    """
    scenario, circuit = load_scenario(spec.scenario)
    ts = circuit.sample_time
    profile = reference_profile(scenario, ts)
    n = len(profile)
    plant = VentilatorPlant(scenario, circuit,
                            measurement_noise_rms=spec.measurement_noise_rms,
                            seed=spec.seed)
    controller = VentilatorController(ControllerConfig(
        sample_time=ts,
        filterset=filterset,
        rc_enabled=spec.mode == "rc",
        output_limits=spec.output_limits,
    ))

    total = spec.breaths * n
    reference = np.empty(total)
    p_aw = np.empty(total)
    p_lung = np.empty(total)
    q_pat = np.empty(total)
    command = np.empty(total)
    bound = 10.0 * (abs(scenario.ipap) + abs(scenario.peep)) + 100.0

    for k in range(total):
        r_k = profile[k % n]
        y_k = plant.peek_measurement()
        if not math.isfinite(y_k) or abs(y_k) > bound:
            partial = BreathLog(scenario.name, spec.mode, ts, n,
                                reference[:k], p_aw[:k], p_lung[:k], q_pat[:k],
                                command[:k], complete=False)
            raise ExperimentDiverged(
                f"measured pressure {y_k:.3g} mbar at sample {k} exceeded the "
                f"bound {bound:.3g}; aborting with partial log",
                partial_log=partial,
            )
        u_k = controller.step(r_k, y_k)
        lung_before = plant.state.p_lung
        _, qp = plant.step(u_k)
        reference[k] = r_k
        p_aw[k] = y_k
        p_lung[k] = lung_before
        q_pat[k] = qp
        command[k] = u_k

    return BreathLog(scenario.name, spec.mode, ts, n,
                     reference, p_aw, p_lung, q_pat, command)


def reference_estimate_frf(plant, controller, operating_pressure, spec) -> FrequencyResponse:
    """estimate_frf's loop and DFT ratio, without the stability precondition.

    The plant is reset first; the excitation is drawn as estimate_frf draws it.
    """
    ts = plant.circuit.sample_time
    rng = np.random.default_rng(spec.seed)
    k_bins, period = spec.one_period(ts, rng)
    n_periods = spec.periods_recorded + spec.periods_discarded
    ctrl = StreamingFilter(controller)
    plant.reset()
    bound = 10.0 * (abs(operating_pressure) + spec.rms_amplitude * np.sqrt(2.0 * k_bins.size)) + 10.0
    m = spec.period_samples
    y_rec = np.empty(spec.periods_recorded * m)
    r_rec = np.empty_like(y_rec)
    rec_at = spec.periods_discarded * m
    for idx in range(n_periods * m):
        r_k = operating_pressure + period[idx % m]
        y_k = plant.peek_measurement()
        if not np.isfinite(y_k) or abs(y_k) > bound:
            raise IdentificationError(
                f"output {y_k:.3g} mbar exceeded the divergence bound {bound:.3g} "
                f"at sample {idx}; identification aborted"
            )
        u_k = ctrl.step(r_k - y_k)
        plant.step(u_k)
        if idx >= rec_at:
            y_rec[idx - rec_at] = y_k
            r_rec[idx - rec_at] = r_k
    idx = k_bins * spec.periods_recorded
    values = np.fft.rfft(y_rec)[idx] / np.fft.rfft(r_rec)[idx]
    return FrequencyResponse(k_bins / (m * ts), values, ts)
