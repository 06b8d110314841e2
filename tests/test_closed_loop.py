"""The chunked closed-loop engine against the sample-by-sample references.

`tests/closed_loop_reference.py` holds the per-sample loops of
`run_experiment` and `estimate_frf`.  pid runs agree to 1e-9 mbar.  rc runs
agree to 1e-9 of each signal's peak: the designed learning filter's
numerator has alternating coefficients in the thousands, so it amplifies the
1e-14 mbar by which the two summation orders differ to about 1e-9 mbar within
a few breaths.
"""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ventrc import control_rt
from ventrc.closed_loop import ClosedLoop, simulate
from ventrc.control_rt import RepetitiveController, benchmark_controller_tf
from ventrc.errors import ConfigurationError, ExperimentDiverged
from ventrc.harness import ExperimentSpec, run_experiment
from ventrc.lti import (
    BATCH, CHUNK, DiscreteTransferFunction, FirKernel, StreamingFilter, state_space,
)
from ventrc.plant import VentilatorPlant, load_scenario, reference_profile, save_scenario
from ventrc.rc_design import RcFilterSet
from ventrc.sysid import MultisineSpec, estimate_frf

from closed_loop_reference import reference_estimate_frf, reference_run

TS = 0.002
SCENARIOS = ("adult", "pediatric", "baby")
SIGNALS = ("reference", "p_aw", "p_lung", "q_pat", "command")
LIMITS = (0.0, 40.0)


def bound_filterset(design_outputs, scenario, circuit):
    return design_outputs["filterset"].with_period(
        len(reference_profile(scenario, circuit.sample_time)))


def assert_matches(engine, ref, mode):
    assert engine.complete == ref.complete
    for name in SIGNALS:
        got, want = getattr(engine, name), getattr(ref, name)
        assert got.shape == want.shape, name
        tol = 1e-9 if mode == "pid" else 1e-9 * (1.0 + np.max(np.abs(want), initial=0.0))
        assert np.max(np.abs(got - want), initial=0.0) <= tol, name


def make_spec(scenario, mode, filterset, **options):
    return ExperimentSpec(scenario, mode, filterset=filterset if mode == "rc" else None, **options)


def run_both(spec):
    """Engine and reference log of one spec, or both partial logs if it diverges."""
    try:
        engine = run_experiment(spec)
    except ExperimentDiverged as exc:
        with pytest.raises(ExperimentDiverged) as ref_exc:
            reference_run(spec, spec.filterset)
        assert str(exc) == str(ref_exc.value)
        return exc.partial_log, ref_exc.value.partial_log
    return engine, reference_run(spec, spec.filterset)


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mode", ["pid", "rc"])
@pytest.mark.parametrize("limited_noisy", [False, True])
def test_builtin_runs_match_reference(design_outputs, name, mode, limited_noisy):
    scenario, circuit = load_scenario(name)
    spec = make_spec(name, mode, bound_filterset(design_outputs, scenario, circuit),
                     breaths=3, seed=7, output_limits=LIMITS if limited_noisy else None,
                     measurement_noise_rms=0.01 if limited_noisy else 0.0)
    engine, ref = run_both(spec)
    assert_matches(engine, ref, mode)


@settings(deadline=None, derandomize=True, max_examples=12,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(setting=st.sampled_from(SCENARIOS),
       r_lung=st.floats(5.0, 50.0), c_lung=st.floats(0.003, 0.05), r_leak=st.floats(20.0, 100.0),
       mode=st.sampled_from(["pid", "rc"]), limited_noisy=st.booleans())
def test_drawn_patients_match_reference(design_outputs, tmp_path_factory, setting, r_lung,
                                        c_lung, r_leak, mode, limited_noisy):
    scenario, circuit = load_scenario(setting)
    scenario = replace(scenario, r_lung=r_lung, c_lung=c_lung, name="drawn")
    circuit = replace(circuit, r_leak=r_leak)
    path = tmp_path_factory.mktemp("patient") / "drawn.cfg"
    save_scenario(scenario, circuit, path)
    spec = make_spec(path, mode, bound_filterset(design_outputs, scenario, circuit),
                     breaths=3, seed=11, output_limits=LIMITS if limited_noisy else None,
                     measurement_noise_rms=0.01 if limited_noisy else 0.0)
    engine, ref = run_both(spec)
    assert_matches(engine, ref, mode)


def test_clamp_episodes_are_exercised(design_outputs):
    # the limited adult rc run spends samples at the lower limit
    scenario, circuit = load_scenario("adult")
    log = run_experiment(ExperimentSpec("adult", "rc", breaths=3, output_limits=LIMITS,
                                        filterset=bound_filterset(design_outputs, scenario,
                                                                  circuit)))
    assert np.sum(log.command == LIMITS[0]) > 10
    assert np.all((log.command >= LIMITS[0]) & (log.command <= LIMITS[1]))


@pytest.mark.parametrize("chunk", [1, 7, 128, 500])
def test_chunk_length_does_not_change_the_run(chunk):
    scenario, circuit = load_scenario("baby")
    reference = np.tile(reference_profile(scenario, circuit.sample_time), 2)
    plant = VentilatorPlant(scenario, circuit, measurement_noise_rms=0.01, seed=3)
    run = simulate(ClosedLoop(plant, benchmark_controller_tf(TS), chunk), reference,
                   plant.draw_noise, np.inf, output_limits=(0.0, 20.0))
    ref = reference_run(ExperimentSpec("baby", "pid", breaths=2, seed=3,
                                       measurement_noise_rms=0.01, output_limits=(0.0, 20.0)))
    for row, name in enumerate(("p_aw", "p_lung", "q_pat", "command")):
        assert np.max(np.abs(run.signals[row] - getattr(ref, name))) <= 1e-9


def test_limits_need_a_command_that_is_one_state():
    # a proportional controller feeds the error through: its command is no state
    scenario, circuit = load_scenario("baby")
    loop = ClosedLoop(VentilatorPlant(scenario, circuit),
                      DiscreteTransferFunction([2.0], [1.0], 0, TS))
    assert loop.command_state is None
    with pytest.raises(ConfigurationError,
                       match="^output limits need a controller whose command is one state$"):
        simulate(loop, np.zeros(300), np.zeros, np.inf, output_limits=(0.0, 20.0))


def test_memory_shorter_than_a_chunk_rejected():
    # a block of the memory's whole chunks would be empty and never advance
    scenario, circuit = load_scenario("baby")
    memory = RepetitiveController(RcFilterSet(
        DiscreteTransferFunction([0.5], [1.0], 0, circuit.sample_time), 0, FirKernel([1.0]), 100))
    loop = ClosedLoop(VentilatorPlant(scenario, circuit), benchmark_controller_tf(TS))
    with pytest.raises(ConfigurationError, match="memory of 100 samples holds no whole chunk "
                                                 "of 128 samples"):
        simulate(loop, np.zeros(300), np.zeros, np.inf, memory=memory)


@pytest.mark.parametrize("mode", ["pid", "rc"])
def test_long_delay_loop_runs_in_bounded_memory(design_outputs, tmp_path, mode, unguarded):
    # 150 + 150 samples of loop delay make the loop order 303; the engine cuts
    # its chunk to keep its arrays small, and the run (which diverges within
    # two breaths) still matches the reference sample for sample
    scenario, circuit = load_scenario("adult")
    assert ClosedLoop(VentilatorPlant(scenario, circuit), benchmark_controller_tf(TS)).chunk == 128
    circuit = replace(circuit, blower_delay_samples=150, measurement_delay_samples=150)
    path = tmp_path / "long_delay.cfg"
    save_scenario(scenario, circuit, path)
    loop = ClosedLoop(VentilatorPlant(scenario, circuit), benchmark_controller_tf(TS))
    held = sum(v.nbytes for v in vars(loop).values() if isinstance(v, np.ndarray))
    assert loop.order == 303 and held < 16 * 2**20
    spec = make_spec(path, mode, bound_filterset(design_outputs, scenario, circuit), breaths=2)
    engine, ref = run_both(spec)
    assert_matches(engine, ref, mode)


def test_zero_corrections_are_the_pid_computation(design_outputs):
    # an rc loop whose learning filter is zero hands out exact zeros: the
    # whole run is pid bit for bit, though pid takes blocks of BATCH chunks
    # and rc blocks of the whole chunks its memory holds, fewer than BATCH
    # here (15, 11 and 7) and never the memory's whole length.  Its
    # robustness filter is scaled to max |Q| < 1, so the stability guard
    # passes it.
    for name in SCENARIOS:
        scenario, circuit = load_scenario(name)
        fs = bound_filterset(design_outputs, scenario, circuit)
        silent = RcFilterSet(DiscreteTransferFunction([0.0], [1.0], 0, fs.sample_time),
                             fs.l_shift, FirKernel(fs.q_kernel.taps * 0.995), fs.period_n)
        buffer_length = RepetitiveController(silent).buffer_length
        assert buffer_length % CHUNK != 0 and buffer_length < BATCH * CHUNK
        # (5, 20) mbar clamps the pid command too, several times a breath
        for limits, noise in ((None, 0.0), (LIMITS, 0.01), ((5.0, 20.0), 0.01)):
            pid = run_experiment(ExperimentSpec(name, "pid", breaths=2, output_limits=limits,
                                                measurement_noise_rms=noise))
            rc = run_experiment(ExperimentSpec(name, "rc", breaths=2, output_limits=limits,
                                               measurement_noise_rms=noise, filterset=silent))
            for signal in SIGNALS:
                assert getattr(rc, signal).tobytes() == getattr(pid, signal).tobytes(), \
                    (name, limits, signal)


def flipped_filterset(design_outputs):
    """The adult's designed filter set with its learning filter times -3: the loop diverges."""
    fs = design_outputs["filterset"]
    lc = fs.l_causal
    flipped = DiscreteTransferFunction(-3.0 * lc.numerator_coeffs, lc.denominator_coeffs,
                                       lc.pure_delay, lc.sample_time)
    return RcFilterSet(flipped, fs.l_shift, fs.q_kernel, fs.period_n)


def test_divergence_matches_reference(design_outputs, unguarded):
    engine, ref = run_both(make_spec("adult", "rc", flipped_filterset(design_outputs), breaths=12))
    assert not engine.complete and not ref.complete
    assert len(engine.p_aw) == len(ref.p_aw) > 0
    assert_matches(engine, ref, "rc")


def test_divergence_inside_a_clamp_episode_matches_reference(design_outputs, unguarded):
    # the diverging loop drives the command to a 400 mbar ceiling, and the
    # measurement crosses the 300 mbar bound while the command is held there
    spec = make_spec("adult", "rc", flipped_filterset(design_outputs), breaths=5,
                     output_limits=(0.0, 400.0))
    engine, ref = run_both(spec)
    assert not engine.complete and not ref.complete
    assert len(engine.p_aw) == len(ref.p_aw) > 0
    assert np.all(engine.command[-3:] == 400.0)
    assert_matches(engine, ref, "rc")


def held_runs(command, limit) -> list[tuple[int, int]]:
    """(first, stop) of each run of samples whose command is exactly limit."""
    held = np.concatenate([[0], (command == limit).astype(int), [0]])
    edges = np.flatnonzero(np.diff(held))
    return list(zip(edges[::2], edges[1::2]))


@pytest.mark.parametrize("mode", ["pid", "rc"])
def test_clamp_episode_across_chunks_matches_reference(design_outputs, mode):
    # a 10 mbar ceiling holds the adult's command through most of each
    # inspiration, hundreds of samples across chunk boundaries
    scenario, circuit = load_scenario("adult")
    spec = make_spec("adult", mode, bound_filterset(design_outputs, scenario, circuit),
                     breaths=2, seed=3, output_limits=(0.0, 10.0), measurement_noise_rms=0.01)
    engine, ref = run_both(spec)
    assert any(first // CHUNK < (stop - 1) // CHUNK
               for first, stop in held_runs(engine.command, 10.0))
    assert_matches(engine, ref, mode)


@pytest.mark.parametrize("mode", ["pid", "rc"])
def test_clamp_from_one_limit_straight_to_the_other_matches_reference(design_outputs, mode):
    # one integrator step crosses a band of 1e-4 mbar: where the error
    # changes sign the command goes from one limit straight to the other
    scenario, circuit = load_scenario("adult")
    lo, hi = 12.0, 12.0001
    spec = make_spec("adult", mode, bound_filterset(design_outputs, scenario, circuit),
                     breaths=2, seed=3, output_limits=(lo, hi), measurement_noise_rms=0.01)
    engine, ref = run_both(spec)
    command = engine.command
    assert np.any((command[:-1] == lo) & (command[1:] == hi))
    assert np.any((command[:-1] == hi) & (command[1:] == lo))
    assert_matches(engine, ref, mode)


FAULT_PATTERN = r"overflow \((.*)\) at sample (\d+)"


def faulting_run(run, spec):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        log = run(spec, spec.filterset) if run is reference_run else run(spec)
    faults = [re.search(FAULT_PATTERN, str(w.message)) for w in caught]
    faults = [m.groups() for m in faults if m]
    assert len(faults) == 1
    return log, float(faults[0][0]), int(faults[0][1])


# (overflow limit, learning-filter gain): a lowered limit makes the designed
# loop fault mid-run, on its input when the gain is small and on its
# correction otherwise; a constant learning filter of 1e11 makes the first
# nonzero correction overflow the real limit
FAULTS = [(45.0, 0.01), (40.0, 0.01), (60.0, 1.0), (control_rt.OVERFLOW_LIMIT, None)]


@pytest.mark.parametrize("limit, gain", FAULTS)
def test_fault_matches_reference(design_outputs, monkeypatch, limit, gain, unguarded):
    scenario, circuit = load_scenario("adult")
    fs = bound_filterset(design_outputs, scenario, circuit)
    lc = fs.l_causal
    if gain is None:
        fs = RcFilterSet(DiscreteTransferFunction([1e11], [1.0], 0, lc.sample_time),
                         0, FirKernel([1.0]), fs.period_n)
    else:
        scaled = DiscreteTransferFunction(gain * lc.numerator_coeffs, lc.denominator_coeffs,
                                          lc.pure_delay, lc.sample_time)
        fs = RcFilterSet(scaled, fs.l_shift, fs.q_kernel, fs.period_n)
    monkeypatch.setattr(control_rt, "OVERFLOW_LIMIT", limit)
    spec = make_spec("adult", "rc", fs, breaths=4)
    engine, value, sample = faulting_run(run_experiment, spec)
    ref, ref_value, ref_sample = faulting_run(reference_run, spec)
    assert sample == ref_sample > RepetitiveController(fs).buffer_length
    assert abs(value) > limit and value == pytest.approx(ref_value, rel=1e-9)
    assert_matches(engine, ref, "rc")
    # the correction is off from the faulting sample on
    recovered = np.diff(engine.command) / control_rt.BENCHMARK_INTEGRAL_GAIN - engine.error[:-1]
    assert np.max(np.abs(recovered[sample - 1:])) < 1e-9


def test_fault_inside_a_clamp_episode_matches_reference(monkeypatch, unguarded):
    # with a constant learning filter of 0.8 and no robustness filter, the
    # memory winds up on the errors of the baby's clamp episodes: its loop
    # input first exceeds 388 inside one, in the 24th breath, while the
    # corrections stay below, so the rest of the block runs without them
    scenario, circuit = load_scenario("baby")
    fs = RcFilterSet(DiscreteTransferFunction([0.8], [1.0], 0, circuit.sample_time), 0,
                     FirKernel([1.0]), len(reference_profile(scenario, circuit.sample_time)))
    monkeypatch.setattr(control_rt, "OVERFLOW_LIMIT", 388.0)
    spec = make_spec("baby", "rc", fs, breaths=24, output_limits=LIMITS)
    engine, value, sample = faulting_run(run_experiment, spec)
    ref, ref_value, ref_sample = faulting_run(reference_run, spec)
    assert sample == ref_sample and value == pytest.approx(ref_value, rel=1e-9)
    # the fault's count is 1-based: the sample before it and the faulting sample are held
    assert np.all(np.isin(engine.command[sample - 2: sample], LIMITS))
    assert_matches(engine, ref, "rc")


@pytest.mark.parametrize("controller", [
    benchmark_controller_tf(TS),
    DiscreteTransferFunction([0.004, 0.006], [1.0, -1.0], 0),      # feedthrough
    DiscreteTransferFunction([0.0, 0.01], [1.0, -1.0], 2),         # input delay
])
@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_estimate_frf_matches_reference(controller, noise):
    scenario, circuit = load_scenario("pediatric")
    spec = MultisineSpec(bins_hz=np.logspace(0.0, 2.0, 20), period_samples=500,
                         periods_recorded=3, periods_discarded=2, seed=4)

    def identify(estimate):
        plant = VentilatorPlant(scenario, circuit, measurement_noise_rms=noise, seed=9)
        return estimate(plant, controller, scenario.ipap, spec)

    got, want = identify(estimate_frf), identify(reference_estimate_frf)
    assert np.array_equal(got.frequencies_hz, want.frequencies_hz)
    assert np.max(np.abs(got.values - want.values)) <= 1e-9


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("blower_delay", [0, 1, 6])
def test_plant_state_space_steps_like_plant(name, blower_delay):
    scenario, circuit = load_scenario(name)
    circuit = replace(circuit, blower_delay_samples=blower_delay, measurement_delay_samples=3)
    plant = VentilatorPlant(scenario, circuit)
    ss = plant.state_space()
    x = np.zeros(len(ss.b))
    for u in np.random.default_rng(1).normal(0.0, 10.0, 400):
        y = ss.c @ x + ss.d * u
        lung = plant.state.p_lung
        measured = plant.peek_measurement()
        _, q_pat = plant.step(u)
        assert np.allclose(y, [measured, lung, q_pat], rtol=0.0, atol=1e-12)
        x = ss.a @ x + ss.b * u


@settings(deadline=None, derandomize=True)
@given(num=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
       poles=st.lists(st.floats(-0.9, 0.9), max_size=3), delay=st.integers(0, 3))
def test_tf_state_space_steps_like_streaming_filter(num, poles, delay):
    tf = DiscreteTransferFunction(num, np.poly(poles) if poles else [1.0], delay)
    ss = state_space(tf)
    stream = StreamingFilter(tf)
    x = np.zeros(len(ss.b))
    for u in np.random.default_rng(2).normal(size=60):
        y = ss.c[0] @ x + ss.d[0] * u
        assert abs(y - stream.step(u)) <= 1e-12 * (1.0 + abs(y))
        x = ss.a @ x + ss.b * u
