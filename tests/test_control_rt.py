import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ventrc.control_rt import (
    BENCHMARK_INTEGRAL_GAIN,
    ControllerConfig,
    IntegralController,
    RepetitiveController,
    VentilatorController,
    benchmark_controller_tf,
    rc_transfer_function,
)
from ventrc.errors import ConfigurationError
from ventrc.harness import ExperimentSpec, run_experiment
from ventrc.lti import DiscreteTransferFunction, FirKernel, filter_stream
from ventrc.plant import load_scenario, reference_profile
from ventrc.rc_design import RcFilterSet, design_q_fir

from rc_reference import ReferenceRepetitiveController

TS = 0.002
KI = BENCHMARK_INTEGRAL_GAIN


def trivial_filterset(period_n=4):
    # unit learning filter, unit single-tap robustness kernel
    lc = DiscreteTransferFunction([1.0], [1.0], 0, TS)
    return RcFilterSet(lc, 0, FirKernel([1.0]), period_n)


def synthetic_filterset(period_n=64):
    lc = DiscreteTransferFunction([1.0, 0.4], [1.0, -0.5], 0, TS)
    return RcFilterSet(lc, 3, design_q_fir(60.0, 10, TS), period_n)


class TestIntegralController:
    def test_zero_error_output_frozen(self):
        ctrl = IntegralController()
        assert [ctrl.step(0.0) for _ in range(5)] == [0.0] * 5

    def test_unit_error_ramp(self):
        ctrl = IntegralController()
        out = [ctrl.step(1.0) for _ in range(5)]
        assert out == pytest.approx([0.0, KI, 2 * KI, 3 * KI, 4 * KI], abs=1e-15)

    def test_sign_flip_negates(self):
        a = IntegralController()
        b = IntegralController()
        rng = np.random.default_rng(0)
        errs = rng.normal(size=100)
        ya = np.array([a.step(e) for e in errs])
        yb = np.array([b.step(-e) for e in errs])
        assert np.array_equal(ya, -yb)

    def test_saturation_holds_integration(self):
        ctrl = IntegralController(gain=0.5, output_limits=(0.0, 1.0))
        for _ in range(20):
            ctrl.step(10.0)  # drives hard against the upper clamp
        assert ctrl.windup_active
        out_at_limit = ctrl.step(-1.0)
        assert out_at_limit == 1.0
        # held integrator: reversal bites immediately instead of unwinding
        assert ctrl.step(-1.0) == pytest.approx(0.5)

    def test_matches_transfer_function(self):
        rng = np.random.default_rng(1)
        errs = rng.normal(size=300)
        ctrl = IntegralController()
        stream = np.array([ctrl.step(e) for e in errs])
        batch = filter_stream(benchmark_controller_tf(), errs)
        assert np.allclose(stream, batch, atol=1e-14)


class TestRepetitiveController:
    def test_zero_error_zero_output(self):
        rc = RepetitiveController(synthetic_filterset())
        assert all(rc.step(0.0) == 0.0 for _ in range(500))

    def test_unit_loop_repeats_impulse(self):
        rc = RepetitiveController(trivial_filterset(period_n=4))
        errs = [1.0] + [0.0] * 15
        out = [rc.step(e) for e in errs]
        assert out == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0,
                       1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_first_pass_exactly_zero(self):
        fs = synthetic_filterset()
        rc = RepetitiveController(fs)
        rng = np.random.default_rng(2)
        n_quiet = rc.buffer_length
        out = [rc.step(e) for e in rng.normal(size=n_quiet + 10)]
        assert out[:n_quiet] == [0.0] * n_quiet
        assert any(v != 0.0 for v in out[n_quiet:])

    def test_matches_rational_evaluation(self):
        fs = synthetic_filterset(period_n=64)
        rc = RepetitiveController(fs)
        rng = np.random.default_rng(3)
        e = rng.normal(size=64 * 12)
        stream = np.array([rc.step(v) for v in e])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            offline = filter_stream(rc_transfer_function(fs), e)
        rms = np.sqrt(np.mean((stream - offline) ** 2))
        assert rms <= 1e-8

    def test_budget_violation_rejected(self):
        lc = DiscreteTransferFunction([1.0], [1.0], 0, TS)
        with pytest.raises(ConfigurationError, match="memory|budget"):
            RepetitiveController(RcFilterSet(lc, 5, design_q_fir(60.0, 10, TS), period_n=10))

    def test_overflow_trips_fault_and_disables(self):
        rc = RepetitiveController(trivial_filterset(period_n=4))
        with pytest.warns(UserWarning, match="overflow"):
            out = [rc.step(1e308) for _ in range(12)]
        assert rc.fault
        assert all(v == 0.0 for v in [rc.step(1.0) for _ in range(8)])
        assert all(np.isfinite(out))

    def test_shift_by_period_time_invariance(self):
        fs = synthetic_filterset(period_n=64)
        rng = np.random.default_rng(4)
        e = rng.normal(size=64 * 6)
        rc1 = RepetitiveController(fs)
        y1 = np.array([rc1.step(v) for v in e])
        rc2 = RepetitiveController(fs)
        y2 = np.array([rc2.step(v) for v in np.concatenate([np.zeros(64), e])])
        assert np.allclose(y2[64:], y1, atol=1e-12)

    def test_linearity(self):
        fs = synthetic_filterset(period_n=64)
        rng = np.random.default_rng(5)
        e1 = rng.normal(size=500)
        e2 = rng.normal(size=500)

        def run(e):
            rc = RepetitiveController(fs)
            return np.array([rc.step(v) for v in e])

        assert np.allclose(run(2.0 * e1 - 0.5 * e2),
                           2.0 * run(e1) - 0.5 * run(e2), atol=1e-10)


class TestVentilatorController:
    def test_disabled_addon_is_bit_identical_to_benchmark(self):
        rng = np.random.default_rng(6)
        refs = rng.uniform(0, 20, 400)
        meas = rng.uniform(0, 20, 400)
        plain = VentilatorController(ControllerConfig())
        off = VentilatorController(ControllerConfig(filterset=synthetic_filterset(),
                                                    rc_enabled=False))
        for r, y in zip(refs, meas):
            assert plain.step(r, y) == off.step(r, y)

    def test_zero_inputs_frozen(self):
        ctrl = VentilatorController(ControllerConfig(filterset=synthetic_filterset(),
                                                     rc_enabled=True))
        assert all(ctrl.step(0.0, 0.0) == 0.0 for _ in range(300))

    def test_sample_time_mismatch_rejected(self):
        lc = DiscreteTransferFunction([1.0], [1.0], 0, 0.001)
        fs = RcFilterSet(lc, 0, FirKernel([1.0]), 100)
        with pytest.raises(ConfigurationError, match="sample time"):
            ControllerConfig(sample_time=0.002, filterset=fs, rc_enabled=True)

    def test_rc_requires_filterset(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(rc_enabled=True)


def test_designed_filterset_equivalence(design_outputs):
    # the pinning check on the as-designed filters and the full period
    fs = design_outputs["filterset"]
    rc = RepetitiveController(fs)
    rng = np.random.default_rng(7)
    e = rng.normal(size=4 * fs.period_n)
    stream = np.array([rc.step(v) for v in e])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        offline = filter_stream(rc_transfer_function(fs), e)
    assert np.sqrt(np.mean((stream - offline) ** 2)) <= 1e-8


# -- the block-wise memory loop against the sample-by-sample reference --------
#
# A filter set is drawn as plain numbers so that @example can pin the regimes
# that exercise the block bookkeeping: robustness taps longer than a memory
# block, a learning-filter advance longer than a block, a learning filter
# with pure delay and one of order 0.


def build_filterset(half_taps, l_num, l_poles, l_delay, l_shift, n_short):
    # symmetric positive taps about the centre, unit DC gain
    taps = np.array(half_taps[:0:-1] + half_taps)
    taps /= taps.sum()
    q = FirKernel(taps)
    lc = DiscreteTransferFunction(l_num, np.poly(l_poles) if l_poles else [1.0],
                                  l_delay, TS)
    return RcFilterSet(lc, l_shift, q, n_short + l_shift + q.forward_shift)


@st.composite
def loop_cases(draw):
    params = (
        draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=9)),
        draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)),
        draw(st.lists(st.floats(-0.9, 0.9), max_size=3)),
        draw(st.integers(0, 4)),
        draw(st.integers(0, 30)),
        draw(st.integers(1, 24)),
    )
    period = build_filterset(*params).period_n
    errors = draw(st.lists(st.floats(-1.0, 1.0), min_size=period, max_size=4 * period))
    return params, errors


LONG_TAPS = ([0.9, 0.7, 0.5, 0.3, 0.2, 0.1], [1.0, 0.4], [0.5], 0, 3, 2)
LONG_ADVANCE = ([0.8, 0.3], [1.0, -0.3, 0.2], [0.6, -0.4], 0, 25, 4)
DELAYED_LC = ([0.6, 0.4, 0.1], [0.7, 0.2], [0.3], 3, 5, 7)
ORDER_0_LC = ([1.0, 0.5], [1.3], [], 0, 0, 5)
RAMP = [math.sin(0.37 * k) for k in range(120)]


@settings(deadline=None, derandomize=True)
@given(loop_cases())
@example((LONG_TAPS, RAMP))
@example((LONG_ADVANCE, RAMP))
@example((DELAYED_LC, RAMP))
@example((ORDER_0_LC, RAMP))
def test_block_loop_matches_references(case):
    params, errors = case
    fs = build_filterset(*params)
    block_rc, ref_rc = RepetitiveController(fs), ReferenceRepetitiveController(fs)
    block = np.array([block_rc.step(e) for e in errors])
    ref = np.array([ref_rc.step(e) for e in errors])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        offline = filter_stream(rc_transfer_function(fs), errors)
    tol = 1e-12 * (1.0 + np.max(np.abs(ref)))
    assert np.max(np.abs(block - ref)) <= tol
    assert np.max(np.abs(block - offline)) <= tol


def run_recording(ctrl, errors):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = [ctrl.step(e) for e in errors]
    return np.array(out), caught


def assert_same_fault(fs, errors):
    block = RepetitiveController(fs)
    ref = ReferenceRepetitiveController(fs)
    out_block, w_block = run_recording(block, errors)
    out_ref, w_ref = run_recording(ref, errors)
    assert block.fault and ref.fault
    assert block.sample_count == ref.sample_count
    assert len(w_block) == len(w_ref) == 1
    assert (w_block[0].category, w_block[0].filename, w_block[0].lineno) == \
        (w_ref[0].category, w_ref[0].filename, w_ref[0].lineno)
    pattern = r"overflow \((.*)\) at sample (\d+)"
    value_b, sample_b = re.search(pattern, str(w_block[0].message)).groups()
    value_r, sample_r = re.search(pattern, str(w_ref[0].message)).groups()
    assert sample_b == sample_r == str(ref.sample_count)
    # a finite overflow value carries the reference's rounding only to 1e-12
    assert value_b == value_r or math.isclose(float(value_b), float(value_r), rel_tol=1e-12)
    assert re.sub(pattern, "", str(w_block[0].message)) == \
        re.sub(pattern, "", str(w_ref[0].message))
    tol = 1e-12 * (1.0 + np.max(np.abs(out_ref)))
    assert np.max(np.abs(out_block - out_ref)) <= tol
    assert np.all(out_block[ref.sample_count - 1:] == 0.0)


@settings(deadline=None, derandomize=True)
@given(loop_cases(), st.data())
def test_block_loop_faults_like_reference(case, data):
    params, errors = case
    at = data.draw(st.integers(0, len(errors) - 1))
    bad = data.draw(st.sampled_from([math.inf, -math.inf, math.nan, 2e12, -5e13]))
    errors = errors[:at] + [bad] + errors[at + 1:]
    assert_same_fault(build_filterset(*params), errors)


def test_correction_overflow_faults_like_reference():
    # a 1e11 learning gain passes the loop input but not the correction
    fs = build_filterset([1.0], [1e11], [], 0, 0, 4)
    assert_same_fault(fs, [30.0] * 12)


@pytest.mark.parametrize("name", ["adult", "pediatric", "baby"])
def test_rc_run_equals_pid_until_memory_fills(design_outputs, name):
    scenario, circuit = load_scenario(name)
    fs = design_outputs["filterset"].with_period(len(reference_profile(scenario,
                                                                       circuit.sample_time)))
    quiet = RepetitiveController(fs).buffer_length + 1
    pid = run_experiment(ExperimentSpec(scenario=name, mode="pid", breaths=1))
    rc = run_experiment(ExperimentSpec(scenario=name, mode="rc", breaths=1, filterset=fs))
    for signal in ("command", "p_aw"):
        assert getattr(rc, signal)[:quiet].tobytes() == getattr(pid, signal)[:quiet].tobytes()
    assert not np.array_equal(rc.command, pid.command)
