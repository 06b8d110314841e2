import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ventrc
from ventrc.errors import ConfigurationError, SingularityError, UnstableFilterWarning
from ventrc.lti import (
    DelayLine,
    DiscreteTransferFunction,
    FirKernel,
    StreamingFilter,
    evaluate,
    filter_stream,
    load_transfer_function,
    save_transfer_function,
)

TS = 0.002
KI = 0.01257


def integrator():
    # benchmark controller gain/(z-1) in z^-1 form
    return DiscreteTransferFunction([0.0, KI], [1.0, -1.0], 0, TS)


class TestEvaluate:
    def test_integrator_magnitude(self):
        tf = integrator()
        for f in (1.0, 10.0, 77.3):
            w = 2 * np.pi * f * TS
            expected = KI / abs(np.exp(1j * w) - 1.0)
            got = abs(evaluate(tf, [f]).values[0])
            assert got == pytest.approx(expected, rel=1e-12)

    def test_integrator_at_nyquist(self):
        # e^{i pi} = -1, so |den| = 2
        val = evaluate(integrator(), [250.0]).values[0]
        assert abs(val) == pytest.approx(KI / 2.0, rel=1e-12)

    def test_unit_gain(self):
        tf = DiscreteTransferFunction([1.0], [1.0], 0, TS)
        resp = evaluate(tf, np.linspace(0.5, 250.0, 40))
        assert np.allclose(resp.values, 1.0 + 0.0j, atol=1e-15)

    def test_pure_delay(self):
        tf = DiscreteTransferFunction([1.0], [1.0], 12, TS)
        f = np.array([3.0, 40.0, 125.0])
        resp = evaluate(tf, f)
        w = 2 * np.pi * f * TS
        assert np.allclose(resp.values, np.exp(-1j * w * 12), atol=1e-13)
        assert np.allclose(np.abs(resp.values), 1.0, atol=1e-13)

    def test_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist|outside"):
            evaluate(integrator(), [251.0])

    def test_singularity_names_frequency(self):
        tf = DiscreteTransferFunction([1.0], [1.0, 1.0], 0, TS)  # root at z = -1
        with pytest.raises(SingularityError, match="250"):
            evaluate(tf, [100.0, 250.0])


class TestFilterStream:
    def test_integrator_ramp(self):
        y = filter_stream(integrator(), np.ones(6))
        assert np.allclose(y, [0.0, KI, 2 * KI, 3 * KI, 4 * KI, 5 * KI], atol=1e-15)

    def test_unit_gain_identity(self):
        u = np.random.default_rng(0).normal(size=50)
        tf = DiscreteTransferFunction([1.0], [1.0], 0, TS)
        assert np.array_equal(filter_stream(tf, u), u)

    def test_pure_delay_shift(self):
        u = np.arange(1.0, 21.0)
        tf = DiscreteTransferFunction([1.0], [1.0], 12, TS)
        y = filter_stream(tf, u)
        assert np.all(y[:12] == 0.0)
        assert np.array_equal(y[12:], u[:8])

    def test_unstable_warns_but_runs(self):
        tf = DiscreteTransferFunction([1.0], [1.0, -1.5], 0, TS)
        with pytest.warns(UnstableFilterWarning):
            y = filter_stream(tf, np.ones(10))
        assert np.all(np.isfinite(y))
        assert y[-1] > y[0]

    def test_streaming_filter_matches_batch(self):
        rng = np.random.default_rng(3)
        tf = DiscreteTransferFunction([0.4, -0.2, 0.05], [1.0, -1.1, 0.3], 2, TS)
        u = rng.normal(size=400)
        batch = filter_stream(tf, u)
        sf = StreamingFilter(tf)
        stream = np.array([sf.step(v) for v in u])
        assert np.allclose(stream, batch, atol=1e-12)


class TestFirApplication:
    def test_single_tap_identity(self):
        k = FirKernel([1.0])
        assert k.forward_shift == 0
        resp = k.frequency_response(np.linspace(0.5, 250.0, 32), TS)
        assert np.allclose(resp, 1.0, atol=0.0)

    def test_symmetric_three_tap_circular(self):
        # the centred kernel spreads an impulse one sample either side:
        # 0.25 e^{iw} + 0.5 + 0.25 e^{-iw} = 0.5 + 0.5 cos w, real for every w
        k = FirKernel([0.25, 0.5, 0.25])
        f = np.linspace(0.5, 250.0, 64)
        expected = 0.5 + 0.5 * np.cos(2 * np.pi * f * TS)
        assert np.allclose(k.frequency_response(f, TS), expected, atol=1e-15)

    def test_dc_preserved_by_unit_sum_kernel(self):
        taps = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        k = FirKernel(taps)
        assert k.dc_gain() == pytest.approx(1.0, abs=1e-12)
        assert k.frequency_response([1e-6], TS)[0] == pytest.approx(1.0, abs=1e-12)

    def test_shift_beyond_taps_rejected(self):
        # the shift follows from the taps: an even count has no centre tap,
        # and the shift cannot be set apart from the taps
        with pytest.raises(ValueError, match="odd"):
            FirKernel([1.0, 0.5])
        k = FirKernel([0.25, 0.5, 0.25])
        assert k.forward_shift == 1
        with pytest.raises(AttributeError):
            k.forward_shift = 5

    def test_zero_phase_response_is_real(self):
        taps = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        k = FirKernel(taps / taps.sum())
        resp = k.frequency_response(np.linspace(0.5, 250.0, 500), TS)
        assert np.max(np.abs(resp.imag)) <= 1e-12 * np.max(np.abs(resp))

    def test_asymmetric_zero_phase_flag_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FirKernel([0.5, 0.5, 0.1])


class TestDelayLine:
    def test_fifo_capacity_three(self):
        line = DelayLine(3)
        assert [line.step(v) for v in (1.0, 2.0, 3.0, 4.0)] == [0.0, 0.0, 0.0, 1.0]

    def test_single_sample_delay(self):
        line = DelayLine(1)
        assert [line.step(v) for v in (5.0, 6.0, 7.0)] == [0.0, 5.0, 6.0]

    def test_long_line_first_nonzero(self):
        line = DelayLine(1988)
        outs = [line.step(1.0 if k == 0 else 0.0) for k in range(1990)]
        assert outs[:1988] == [0.0] * 1988
        assert outs[1988] == 1.0

    def test_contents_bit_exact(self):
        rng = np.random.default_rng(9)
        line = DelayLine(17)
        values = list(rng.normal(size=100))
        for v in values:
            line.step(v)
        assert [line.step(0.0) for _ in range(17)] == values[-17:]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayLine(0)


def test_evaluate_filter_stream_consistency():
    # steady-state sinusoid response must match the frequency-domain value
    tf = DiscreteTransferFunction([0.3, 0.1], [1.0, -1.55, 0.6], 3, TS)
    f = 5.0
    n_settle, n_meas = 7000, 1000  # 14 s settle >> 20 time constants; 10 full cycles
    t = np.arange(n_settle + n_meas) * TS
    u = np.cos(2 * np.pi * f * t)
    y = filter_stream(tf, u)[n_settle:]
    k = round(f * n_meas * TS)
    coeff = np.fft.rfft(y)[k] / np.fft.rfft(u[n_settle:])[k]
    ref = evaluate(tf, [f]).values[0]
    assert abs(coeff) == pytest.approx(abs(ref), rel=1e-3)
    assert np.angle(coeff / ref) == pytest.approx(0.0, abs=1e-3)


def test_transfer_function_normalizes_denominator():
    tf = DiscreteTransferFunction([2.0, 4.0], [2.0, -1.0], 0, TS)
    assert tf.denominator_coeffs[0] == 1.0
    assert np.allclose(tf.numerator_coeffs, [1.0, 2.0])


def test_coefficient_file_round_trip(tmp_path):
    tf = DiscreteTransferFunction([0.25, -0.125, 0.0625], [1.0, -0.5, 0.25], 7, TS)
    path = tmp_path / "filt.coeff"
    save_transfer_function(tf, path)
    back = load_transfer_function(path)
    assert back.pure_delay == 7
    assert back.sample_time == TS
    assert np.array_equal(back.numerator_coeffs, tf.numerator_coeffs)
    assert np.array_equal(back.denominator_coeffs, tf.denominator_coeffs)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [], "file is empty"),
    (lambda lines: lines[:lines.index("den 3")], "missing field 'den'"),
    (lambda lines: lines[:-1], "field 'den' declares 3 values, the file has 2"),
    (lambda lines: ["tf 0.002"] + lines[1:],
     "expected header 'tf <sample_time> <pure_delay>', got 'tf 0.002'"),
    (lambda lines: ["fir 0.002 7"] + lines[1:],
     "expected header 'tf <sample_time> <pure_delay>', got 'fir 0.002 7'"),
    (lambda lines: ["tf 0.002 seven"] + lines[1:], "field 'pure_delay': 'seven' is not a valid int"),
    (lambda lines: lines[:-3] + ["0.0"] + lines[-2:],
     "denominator leading (z^0) coefficient must be nonzero"),
    (lambda lines: ["tf -0.002 7"] + lines[1:], "sample_time must be positive, got -0.002"),
    (None, "cannot open: No such file or directory"),
])
def test_truncated_coefficient_file_fails_closed(tmp_path, edit, message):
    path = tmp_path / "filt.coeff"
    if edit is not None:  # None: the file is missing
        save_transfer_function(
            DiscreteTransferFunction([0.25, -0.125], [1.0, -0.5, 0.25], 7, TS), path)
        path.write_text("".join(ln + "\n" for ln in edit(path.read_text().splitlines())))
    with pytest.raises(ConfigurationError) as exc:
        load_transfer_function(path)
    assert str(exc.value) == f"{path}: {message}"


def test_import_does_not_load_scipy_signal():
    # scipy.signal costs about a second to import; only filtering code needs it
    src = Path(ventrc.__file__).resolve().parent.parent
    probe = "import sys, ventrc; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "False"

